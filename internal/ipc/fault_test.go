package ipc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"omos/internal/fault"
)

// TestFaultFrameErrorTyped: every flavor of frame damage surfaces as
// *FrameError with the right reason; a clean close stays io.EOF.
func TestFaultFrameErrorTyped(t *testing.T) {
	var fe *FrameError
	read := func(b []byte) error {
		var out Request
		_, err := newFrameReader(bytes.NewReader(b)).next(&out)
		return err
	}

	// Oversized length prefix.
	err := read(bytes.Repeat([]byte{0xFF}, hdrSize))
	if !errors.As(err, &fe) || fe.Reason != "oversized" {
		t.Fatalf("oversized: err = %v", err)
	}

	// Truncated payload.
	full, err := newFrameWriter().frame(1, &Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	err = read(full[:len(full)-2])
	if !errors.As(err, &fe) || fe.Reason != "truncated" {
		t.Fatalf("truncated payload: err = %v", err)
	}

	// Truncated header.
	err = read(full[:hdrSize-2])
	if !errors.As(err, &fe) || fe.Reason != "truncated" {
		t.Fatalf("truncated header: err = %v", err)
	}

	// Malformed payload (header fine, garbage gob).
	garbage := make([]byte, hdrSize+8)
	binary.BigEndian.PutUint32(garbage, 8)
	copy(garbage[hdrSize:], "notagob!")
	err = read(garbage)
	if !errors.As(err, &fe) || fe.Reason != "malformed" {
		t.Fatalf("malformed: err = %v", err)
	}

	// Clean close between frames.
	if err := read(nil); err != io.EOF {
		t.Fatalf("clean close: err = %v, want io.EOF", err)
	}

	// Tag mismatch: a completion for a tag the client never issued.
	srvEnd, cliEnd := net.Pipe()
	defer srvEnd.Close()
	c := NewClient(cliEnd)
	defer c.Close()
	go func() {
		var req Request
		if _, err := newFrameReader(srvEnd).next(&req); err != nil {
			return
		}
		if frame, err := newFrameWriter().frame(99, &Response{Final: true}); err == nil {
			srvEnd.Write(frame)
		}
	}()
	_, err = c.Call(&Request{Op: OpPing})
	if !errors.As(err, &fe) || fe.Reason != "tag-mismatch" {
		t.Fatalf("tag mismatch: err = %v", err)
	}
}

// TestFaultBadFrame: a client that sends garbage costs only its own
// connection; the daemon answers the next client normally.
func TestFaultBadFrame(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	// Garbage client: oversized header followed by noise.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write(append(bytes.Repeat([]byte{0xFF}, hdrSize), 0xDE, 0xAD, 0xBE, 0xEF))
	// The server must hang up on us.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept talking to a garbage client")
	}
	raw.Close()

	// Second garbage flavor: plausible header, unparseable payload.
	raw2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [hdrSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], 16)
	binary.BigEndian.PutUint64(hdr[4:12], 1)
	raw2.Write(hdr[:])
	raw2.Write(bytes.Repeat([]byte{0x5A}, 16))
	raw2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw2.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept talking to a malformed-gob client")
	}
	raw2.Close()

	// The accept loop survived: a well-formed client gets served.
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text == "" {
		t.Fatalf("daemon dead after bad frames: %v", err)
	}
}

// TestFaultCallDeadline: a server that accepts the request but never
// replies must not hang the client; the configured call timeout
// surfaces as context.DeadlineExceeded.
func TestFaultCallDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Swallow the request, never answer.
			go func(c net.Conn) {
				var req Request
				newFrameReader(c).next(&req)
				// hold the connection open, silent
			}(conn)
		}
	}()

	c, err := DialWith(l.Addr().String(), Options{CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(&Request{Op: OpPing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}

	// Same via a caller-supplied context deadline.
	c2, err := DialWith(l.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c2.CallCtx(ctx, &Request{Op: OpPing}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx err = %v, want context.DeadlineExceeded", err)
	}
}

// TestFaultInjectedReadDrop: an injected receive failure drops the
// connection mid-protocol; an idempotent call rides it out via the
// transparent reconnect.
func TestFaultInjectedReadDrop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	f := fault.New(7)
	f.Enable(fault.Rule{Site: fault.SiteIPCRead, Kind: fault.KindError, EveryN: 2, Count: 1})
	srv.SetFaults(f)
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := DialWith(l.Addr().String(), Options{Retries: 2, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First call succeeds (hit 1), second is dropped server-side (hit
	// 2 trips) and must transparently reconnect and succeed.
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text == "" {
		t.Fatalf("ping across injected read drop: %v", err)
	}
	if f.Trips(fault.SiteIPCRead) == 0 {
		t.Fatal("fault never tripped; test proved nothing")
	}
}

// TestFaultInjectedWriteDrop: the response is computed but the send
// fails; the connection drops and an idempotent retry succeeds.
func TestFaultInjectedWriteDrop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	f := fault.New(7)
	f.Enable(fault.Rule{Site: fault.SiteIPCWrite, Kind: fault.KindError, EveryN: 1, Count: 1})
	srv.SetFaults(f)
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := DialWith(l.Addr().String(), Options{Retries: 2, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(&Request{Op: OpList, Path: "/"}); err != nil || resp == nil {
		t.Fatalf("list across injected write drop: %v", err)
	}
	if f.Trips(fault.SiteIPCWrite) != 1 {
		t.Fatalf("write fault trips = %d, want 1", f.Trips(fault.SiteIPCWrite))
	}
}

// panicBackend panics on Run: the handler must convert it into an
// error response, not a dead daemon.
type panicBackend struct{ *fakeBackend }

func (p *panicBackend) Run(string, []string, bool) (RunOutcome, error) {
	panic("handler bug")
}

// TestFaultHandlerPanicRecovered: a panicking backend handler fails
// that one request with an error response; the connection and the
// daemon survive, and Recovered counts it.
func TestFaultHandlerPanicRecovered(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&panicBackend{newFakeBackend()})
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/x"})
	if err == nil {
		t.Fatal("panicking handler returned success")
	}
	if resp == nil || resp.Err == "" {
		t.Fatalf("want error response, got %+v", resp)
	}
	if srv.recovered.Load() != 1 {
		t.Fatalf("Recovered = %d, want 1", srv.recovered.Load())
	}
	// Same connection still works.
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text == "" {
		t.Fatalf("connection dead after recovered panic: %v", err)
	}
	// Health reports the transport's recovery next to the backend's
	// counters.
	hresp, err := c.Call(&Request{Op: OpHealth})
	if err != nil || hresp.Health == nil {
		t.Fatalf("health: %v %+v", err, hresp)
	}
	if n, _ := hresp.Health.Lookup("transport-recovered"); n != 1 || hresp.Health.Draining {
		t.Fatalf("health = %+v", hresp.Health)
	}
}

// TestFaultDrainRace: a client whose request races the daemon's
// SIGTERM drain gets a clean typed "draining" error, never a
// connection reset mid-exchange.
func TestFaultDrainRace(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	srv.DrainGrace = 500 * time.Millisecond
	go srv.Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shutdownDone)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	// The drain has begun; our next request lands inside the grace
	// window and must be answered, not reset.
	_, err = c.Call(&Request{Op: OpPing})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	<-shutdownDone
}

// TestFaultHealthDuringDrain: the health op reports Draining once
// shutdown begins.
func TestFaultHealthDuringDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&Request{Op: OpHealth})
	if err != nil || resp.Health == nil {
		t.Fatalf("health: %v", err)
	}
	if resp.Health.Draining {
		t.Fatal("daemon claims to be draining while serving")
	}
}
