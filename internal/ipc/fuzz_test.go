package ipc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
)

// recordingListener hands the server connections whose inbound bytes
// are also appended to in and outbound bytes to out: the exact request
// stream a real client produced and the response stream it read.
type recordingListener struct {
	net.Listener
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, l: l}, nil
}

func (l *recordingListener) bytes() (in, out []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Clone(l.in.Bytes()), bytes.Clone(l.out.Bytes())
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.in.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.out.Write(p)
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// fuzzBackend gives every recorded operation a full reply: a health
// report with state and counters, streamed batch items, and a mesh
// fetch answered with metadata only when the requester holds the
// bytes, with a streamed blob otherwise.
type fuzzBackend struct{ *batchBackend }

func (fuzzBackend) Health() HealthInfo {
	return HealthInfo{Degraded: true, DegradedReason: "queue pressure",
		UpgradeActive: true, UpgradeEpoch: "e1", UpgradeCanaryPct: 10, MeshSelf: "127.0.0.1:7070",
		Counters: []Counter{{"uptime-ms", 1200}, {"cache-hits", 3}, {"mesh-shards", 2}}}
}
func (fuzzBackend) MeshFetch(req *MeshReq) (*MeshInfo, []byte, error) {
	if req.HaveBytes {
		return &MeshInfo{Found: true, MetaOnly: true, AbsPatches: 3, Syms: 4}, nil, nil
	}
	blob := bytes.Repeat([]byte{0x5a}, 1000)
	return &MeshInfo{Found: true, Size: uint64(len(blob)), Syms: 4}, blob, nil
}
func (fuzzBackend) MeshPut(req *MeshReq) error                    { return nil }
func (fuzzBackend) MeshGossip(req *MeshReq) (*MeshInfo, error)    { return &MeshInfo{}, nil }
func (fuzzBackend) MeshRebalance(req *MeshReq) (*MeshInfo, error) { return &MeshInfo{}, nil }

// recordSession runs one real Client session — the secret hello, then
// ping, health, define, run, instantiate-batch and mesh-fetch —
// against a secretful server and returns the bytes the server read
// (requests) and wrote (responses).
func recordSession(f *testing.F) (requests, responses []byte) {
	const secret = "fuzz-secret"
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	l := &recordingListener{Listener: inner}
	srv := NewServer(fuzzBackend{&batchBackend{fakeBackend: newFakeBackend()}})
	srv.MeshSecret = secret
	go srv.Serve(l)
	defer srv.Shutdown()
	c, err := DialWith(inner.Addr().String(), Options{MeshSecret: secret})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	for _, req := range []*Request{
		{Op: OpPing},
		{Op: OpHealth},
		{Op: OpDefine, Path: "/bin/x", Text: "(merge /a)"},
		{Op: OpRun, Path: "/bin/x", Args: []string{"-l"}},
	} {
		if _, err := c.Call(req); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := c.InstantiateBatch([]string{"/bin/x", "/lib/bogus"}); err != nil {
		f.Fatal(err)
	}
	for _, have := range []bool{true, false} {
		if _, _, err := c.MeshFetch(context.Background(), &MeshReq{From: "f", CKey: "k", HaveBytes: have}); err != nil {
			f.Fatal(err)
		}
	}
	// Every response has arrived, so the server has read every request
	// and written every response.
	return l.bytes()
}

// readFrames reads data as one connection's tagged frames, the way
// serveMux and a client session's readLoop do: each payload is decoded
// into a fresh T by the persistent gob decoder and handed to use.
// Every failure must be a clean close or a typed *FrameError, never a
// panic, and no claimed length may grow the payload buffer past
// maxFrame.
func readFrames[T any](t testing.TB, data []byte, use func(*T)) {
	fr := newFrameReader(bytes.NewReader(data))
	for {
		v := new(T)
		_, err := fr.next(v)
		if cap(fr.buf) > maxFrame {
			t.Fatalf("payload buffer grew to %d bytes", cap(fr.buf))
		}
		if err == nil {
			use(v)
			continue
		}
		var fe *FrameError
		if err != io.EOF && !errors.As(err, &fe) {
			t.Fatalf("untyped frame error: %v", err)
		}
		return
	}
}

// FuzzServeFrames feeds arbitrary bytes through the server's frame
// reader and persistent Request decoder.
func FuzzServeFrames(f *testing.F) {
	requests, _ := recordSession(f)
	f.Add(requests)
	f.Fuzz(func(t *testing.T, data []byte) {
		readFrames(t, data, func(*Request) {})
	})
}

// FuzzClientResponses feeds arbitrary bytes through the client's frame
// reader and persistent Response decoder, and hands each reply to the
// client's reading of it (batch item errors, the health renderer and
// verdict).  Seeded with a recorded daemon reply stream: hello
// challenge, ping, a health report with counters, run, batch item
// frames and their Final, a metadata-only mesh fetch, and a blob chunk
// and its Final.
func FuzzClientResponses(f *testing.F) {
	_, responses := recordSession(f)
	var health, items, chunks, meta int
	readFrames(f, responses, func(resp *Response) {
		switch {
		case resp.Health != nil && len(resp.Health.Counters) > 0:
			health++
		case !resp.Final && len(resp.Blob) > 0:
			chunks++
		case resp.Mesh != nil && resp.Mesh.MetaOnly:
			meta++
		case !resp.Final:
			items++
		}
	})
	if health != 1 || items != 2 || meta != 1 || chunks != 1 {
		f.Fatalf("recorded replies: %d health, %d batch items, %d metadata-only, %d blob chunks; want 1, 2, 1, 1",
			health, items, meta, chunks)
	}
	f.Add(responses)
	f.Fuzz(func(t *testing.T, data []byte) {
		readFrames(t, data, func(resp *Response) {
			batchItemError(resp)
			if resp.Health != nil {
				resp.Health.Render()
				resp.Health.Healthy()
			}
		})
	})
}
