package ipc

// Tests for the multiplexed protocol: out-of-order completion, -race
// stress on one shared client, drain with dozens of parked tags, tag
// corruption and duplicate delivery, a short mesh-fetch stream, the
// SetOptions race fix, the allocation-free framed hot path, batch
// streaming, and the fault sites under pipelined load.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omos/internal/fault"
)

// startMuxServer is startServer with access to the Server value (for
// HandlerPool, faults, Shutdown) and a custom backend.
func startMuxServer(t *testing.T, b Backend, tune func(*Server)) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b)
	if tune != nil {
		tune(srv)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(); l.Close() })
	return srv, l.Addr().String()
}

func dialMux(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := DialWith(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// gatedBackend holds selected Run paths until released, so a test can
// prove a later request completes while an earlier one is parked.
type gatedBackend struct {
	*fakeBackend
	mu      sync.Mutex
	entered map[string]chan struct{} // closed when that path enters Run
	release map[string]chan struct{} // Run returns when closed
}

func newGatedBackend(paths ...string) *gatedBackend {
	g := &gatedBackend{
		fakeBackend: newFakeBackend(),
		entered:     map[string]chan struct{}{},
		release:     map[string]chan struct{}{},
	}
	for _, p := range paths {
		g.entered[p] = make(chan struct{})
		g.release[p] = make(chan struct{})
	}
	return g
}

func (g *gatedBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	g.mu.Lock()
	entered, gated := g.entered[name]
	release := g.release[name]
	g.mu.Unlock()
	if gated {
		close(entered)
		<-release
	}
	return RunOutcome{ExitCode: 7, Output: "ran " + name}, nil
}

func TestMuxOutOfOrderCompletion(t *testing.T) {
	g := newGatedBackend("/bin/slow")
	_, addr := startMuxServer(t, g, nil)
	c := dialMux(t, addr, Options{})

	slowDone := make(chan error, 1)
	go func() {
		resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/slow"})
		if err == nil && resp.Output != "ran /bin/slow" {
			err = fmt.Errorf("slow got %+v", resp)
		}
		slowDone <- err
	}()
	<-g.entered["/bin/slow"] // the slow call is parked inside the handler

	// A later call on the same connection completes first.
	resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/fast"})
	if err != nil || resp.Output != "ran /bin/fast" {
		t.Fatalf("fast call while slow parked: %v %+v", err, resp)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call completed before release: %v", err)
	default:
	}
	close(g.release["/bin/slow"])
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

func TestMuxStressSharedClient(t *testing.T) {
	for _, goroutines := range []int{8, 64} {
		t.Run(fmt.Sprintf("g%d", goroutines), func(t *testing.T) {
			_, addr := startMuxServer(t, newFakeBackend(), nil)
			c := dialMux(t, addr, Options{CallTimeout: time.Minute})
			const iters = 25
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						path := fmt.Sprintf("/bin/g%d-i%d", g, i)
						resp, err := c.Call(&Request{Op: OpRun, Path: path})
						if err != nil {
							errs <- err
							return
						}
						// Each caller must receive its own completion,
						// not a neighbor's.
						if resp.Output != "ran "+path {
							errs <- fmt.Errorf("goroutine %d got %q", g, resp.Output)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// countingBackend parks every Run until released, counting entries.
type countingBackend struct {
	*fakeBackend
	entered atomic.Int64
	release chan struct{}
}

func (b *countingBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	b.entered.Add(1)
	<-b.release
	return RunOutcome{ExitCode: 1, Output: "drained"}, nil
}

func TestMuxDrainWaitsForAllTags(t *testing.T) {
	const parked = 50
	b := &countingBackend{fakeBackend: newFakeBackend(), release: make(chan struct{})}
	// A pool wider than the parked count so every call is genuinely
	// in a handler (in-flight), not queued in the read loop.
	srv, addr := startMuxServer(t, b, func(s *Server) {
		s.HandlerPool = parked + 14
		s.DrainGrace = 200 * time.Millisecond
	})
	c := dialMux(t, addr, Options{CallTimeout: time.Minute})

	results := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func(i int) {
			resp, err := c.Call(&Request{Op: OpRun, Path: fmt.Sprintf("/bin/p%d", i)})
			if err == nil && resp.Output != "drained" {
				err = fmt.Errorf("unexpected response %+v", resp)
			}
			results <- err
		}(i)
	}
	// Wait until all 50 tags are inside handlers on one connection.
	deadline := time.Now().Add(5 * time.Second)
	for b.entered.Load() < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d calls entered handlers", b.entered.Load(), parked)
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan struct{})
	go func() { srv.Shutdown(); close(shutdownDone) }()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with 50 tags still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// A late arrival during the drain is answered per-tag with a
	// clean draining error — the other 50 tags are unaffected.  It
	// rides the established (parked) connection: the listener is
	// already closed, so a fresh dial would be refused outright.
	if _, err := c.Call(&Request{Op: OpPing}); !errors.Is(err, ErrDraining) {
		t.Fatalf("late call got %v, want ErrDraining", err)
	}

	close(b.release)
	<-shutdownDone
	for i := 0; i < parked; i++ {
		if err := <-results; err != nil {
			t.Fatalf("parked call %d failed across drain: %v", i, err)
		}
	}
}

func TestMuxTagCorruption(t *testing.T) {
	// A corrupt-kind rule at ipc.write flips tag bits on the 3rd
	// response frame: the client must detect a completion it never
	// issued, poison the connection, and recover by redialing.
	fs := fault.New(1)
	if err := fs.Enable(fault.Rule{Site: fault.SiteIPCWrite, Kind: fault.KindCorrupt, EveryN: 3, Count: 1}); err != nil {
		t.Fatal(err)
	}
	_, addr := startMuxServer(t, newFakeBackend(), func(s *Server) { s.SetFaults(fs) })

	// No retries: observe the raw failure.
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	var frameErr *FrameError
	sawCorruption := false
	for i := 0; i < 4; i++ {
		_, err := c.Call(&Request{Op: OpList, Path: "/"})
		if err == nil {
			continue
		}
		if !errors.As(err, &frameErr) || frameErr.Reason != "tag-mismatch" {
			t.Fatalf("call %d: got %v, want tag-mismatch FrameError", i, err)
		}
		sawCorruption = true
	}
	if !sawCorruption {
		t.Fatal("corruption rule never surfaced")
	}
	if fs.Trips(fault.SiteIPCWrite) == 0 {
		t.Fatal("corrupt rule never tripped")
	}
	// The client recovers on a fresh session.
	c2 := dialMux(t, addr, Options{Retries: 2, CallTimeout: 5 * time.Second})
	if _, err := c2.Call(&Request{Op: OpPing}); err != nil {
		t.Fatalf("recovery after corruption: %v", err)
	}
}

// muxHarness hand-rolls a server speaking raw tagged frames, for
// protocol-abuse tests the real server cannot be coaxed into.  Every
// accepted connection runs serve; the connection closes when it
// returns.
func muxHarness(t *testing.T, serve func(fr *frameReader, send func(tag uint64, resp *Response))) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				w := newFrameWriter()
				send := func(tag uint64, resp *Response) {
					frame, err := w.frame(tag, resp)
					if err != nil {
						t.Errorf("harness encode: %v", err)
						return
					}
					conn.Write(frame)
				}
				serve(newFrameReader(conn), send)
			}()
		}
	}()
	return l.Addr().String()
}

func TestMuxDuplicateTagDelivery(t *testing.T) {
	// The server completes tag 1 twice, then answers tag 2 normally:
	// the duplicate must be discarded and the connection survive.
	addr := muxHarness(t, func(fr *frameReader, send func(uint64, *Response)) {
		for {
			var req Request
			tag, err := fr.next(&req)
			if err != nil {
				return
			}
			send(tag, &Response{Text: "first", Final: true})
			if tag == 1 {
				send(tag, &Response{Text: "duplicate", Final: true})
			}
		}
	})
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text != "first" {
		t.Fatalf("tag 1: %v %+v", err, resp)
	}
	// The duplicate for tag 1 must not have poisoned the session or
	// been mistaken for tag 2's completion.
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text != "first" {
		t.Fatalf("tag 2 after duplicate: %v %+v", err, resp)
	}
}

func TestMuxNeverIssuedTagPoisonsSession(t *testing.T) {
	// A completion for a tag far beyond anything issued is stream
	// corruption: every parked call must fail with a tag-mismatch
	// FrameError.
	addr := muxHarness(t, func(fr *frameReader, send func(uint64, *Response)) {
		var req Request
		if _, err := fr.next(&req); err != nil {
			return
		}
		send(0xDEAD_BEEF, &Response{Final: true})
	})
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	_, err := c.Call(&Request{Op: OpPing})
	var frameErr *FrameError
	if !errors.As(err, &frameErr) || frameErr.Reason != "tag-mismatch" {
		t.Fatalf("got %v, want tag-mismatch FrameError", err)
	}
}

func TestMuxMeshFetchShortBlobRejected(t *testing.T) {
	// The server streams fewer blob bytes than its Final frame claims
	// and hangs up at once.  Whether the client sees the Final before
	// or after noticing the close, the short blob must be refused.
	addr := muxHarness(t, func(fr *frameReader, send func(uint64, *Response)) {
		var req Request
		tag, err := fr.next(&req)
		if err != nil {
			return
		}
		send(tag, &Response{Index: 0, Blob: []byte("short")})
		send(tag, &Response{Index: 1, Blob: []byte("chunks")})
		send(tag, &Response{Final: true, Mesh: &MeshInfo{Found: true, Size: 1 << 10}})
	})
	for i := 0; i < 60; i++ {
		c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
		info, blob, err := c.MeshFetch(context.Background(), &MeshReq{From: "x", CKey: "k"})
		if err == nil {
			t.Fatalf("iteration %d: short blob accepted: %d bytes, info %+v", i, len(blob), info)
		}
		c.Close()
	}
}

func TestSetOptionsConcurrentWithCalls(t *testing.T) {
	_, addr := startMuxServer(t, newFakeBackend(), nil)
	c := dialMux(t, addr, Options{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		opts := []Options{
			{CallTimeout: time.Minute},
			{CallTimeout: time.Minute, Retries: 2, Backoff: time.Millisecond},
			DefaultOptions,
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.SetOptions(opts[i%len(opts)])
			}
		}
	}()
	var callers sync.WaitGroup
	for g := 0; g < 8; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Call(&Request{Op: OpPing}); err != nil {
					t.Errorf("call under SetOptions churn: %v", err)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	wg.Wait()
}

func TestFramedHotPathAllocFree(t *testing.T) {
	// Steady-state framing must not allocate: encode reuses the send
	// buffer behind the reserved header hole, decode reuses the
	// receive buffer and header scratch.
	payload := bytes.Repeat([]byte{0xAB}, 256)
	var sb sendBuf
	sink := bytes.NewBuffer(make([]byte, 0, 4096))
	rd := bytes.NewReader(nil)
	var hdr [hdrSize]byte
	rbuf := make([]byte, 0, 4096)
	// Warm the buffers to their high-water marks.
	sb.reset()
	sb.Write(payload)
	sb.seal(1)
	allocs := testing.AllocsPerRun(500, func() {
		sink.Reset()
		sb.reset()
		sb.Write(payload)
		sb.seal(42)
		sink.Write(sb.b)
		rd.Reset(sink.Bytes())
		tag, pl, err := readTagged(rd, &hdr, &rbuf)
		if err != nil || tag != 42 || len(pl) != len(payload) {
			t.Fatalf("roundtrip: tag=%d len=%d err=%v", tag, len(pl), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("framed hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// batchBackend counts InstantiateBatch items and fails marked paths.
type batchBackend struct {
	*fakeBackend
	mu    sync.Mutex
	items []string
}

func (b *batchBackend) InstantiateBatch(paths []string, done func(i int, err error)) {
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			b.mu.Lock()
			b.items = append(b.items, p)
			b.mu.Unlock()
			if strings.Contains(p, "bogus") {
				done(i, fmt.Errorf("no meta-object at %s", p))
				return
			}
			done(i, nil)
		}(i, p)
	}
	wg.Wait()
}

func TestBatchStreamingV2(t *testing.T) {
	b := &batchBackend{fakeBackend: newFakeBackend()}
	_, addr := startMuxServer(t, b, nil)
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	paths := []string{"/bin/a", "/bogus/x", "/bin/b", "/bin/c"}
	results, err := c.InstantiateBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(results), len(paths))
	}
	for i, r := range results {
		if r.Path != paths[i] {
			t.Fatalf("result %d for %q, want %q", i, r.Path, paths[i])
		}
		wantErr := strings.Contains(paths[i], "bogus")
		if (r.Err != nil) != wantErr {
			t.Fatalf("result %d (%s): err=%v", i, r.Path, r.Err)
		}
	}
	b.mu.Lock()
	n := len(b.items)
	b.mu.Unlock()
	if n != len(paths) {
		t.Fatalf("backend saw %d items, want %d", n, len(paths))
	}
}

func TestFaultPipelinedMatrix(t *testing.T) {
	// The ipc.read/ipc.write fault sites re-proven under pipelined
	// load: while 16 goroutines share one multiplexed client, an
	// injected mid-stream fault kills a connection under dozens of
	// in-flight tags.  Every idempotent call must converge via retry
	// and redial, and the server must survive (including the panic
	// kinds, which are recovered per connection).
	for _, site := range []string{fault.SiteIPCRead, fault.SiteIPCWrite} {
		for _, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
			t.Run(fmt.Sprintf("%s-%v", site, kind), func(t *testing.T) {
				fs := fault.New(7)
				if err := fs.Enable(fault.Rule{Site: site, Kind: kind, EveryN: 7, Count: 3}); err != nil {
					t.Fatal(err)
				}
				srv, addr := startMuxServer(t, newFakeBackend(), func(s *Server) { s.SetFaults(fs) })
				c := dialMux(t, addr, Options{
					CallTimeout: 10 * time.Second,
					Retries:     6,
					Backoff:     time.Millisecond,
				})
				var wg sync.WaitGroup
				for g := 0; g < 16; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 6; i++ {
							path := fmt.Sprintf("/d/g%d-i%d", g, i)
							resp, err := c.Call(&Request{Op: OpDisasm, Path: path})
							if err != nil {
								t.Errorf("g%d i%d: %v", g, i, err)
								return
							}
							if resp.Text != "disasm of "+path {
								t.Errorf("g%d i%d: cross-talk: %q", g, i, resp.Text)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				if fs.Trips(site) == 0 {
					t.Fatalf("%s never tripped under pipelined load", site)
				}
				if kind == fault.KindPanic && srv.recovered.Load() == 0 {
					t.Fatal("injected panics were not recovered")
				}
				// The server is still healthy for a fresh client.
				fs.DisableAll()
				c2 := dialMux(t, addr, Options{})
				if _, err := c2.Call(&Request{Op: OpPing}); err != nil {
					t.Fatalf("server unhealthy after %s faults: %v", site, err)
				}
			})
		}
	}
}
