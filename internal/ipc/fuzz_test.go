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
// are also appended to rec: the exact request stream a real client
// produced.
type recordingListener struct {
	net.Listener
	mu  sync.Mutex
	rec bytes.Buffer
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, l: l}, nil
}

func (l *recordingListener) bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Clone(l.rec.Bytes())
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.rec.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// recordSession runs one real Client session — the secret hello, then
// ping, define, run, instantiate-batch and mesh-fetch — against a
// secretful server and returns the bytes the server read.
func recordSession(f *testing.F) []byte {
	const secret = "fuzz-secret"
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	l := &recordingListener{Listener: inner}
	srv := NewServer(meshFakeBackend{newFakeBackend()})
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
		{Op: OpDefine, Path: "/bin/x", Text: "(merge /a)"},
		{Op: OpRun, Path: "/bin/x", Args: []string{"-l"}},
	} {
		if _, err := c.Call(req); err != nil {
			f.Fatal(err)
		}
	}
	// The fake backend cannot batch: the request still crosses the wire.
	c.InstantiateBatch([]string{"/bin/x", "/lib/l"})
	if _, _, err := c.MeshFetch(context.Background(), &MeshReq{From: "f", CKey: "k", HaveBytes: true}); err != nil {
		f.Fatal(err)
	}
	// Every response has arrived, so the server has read every request.
	return l.bytes()
}

// FuzzServeFrames feeds arbitrary bytes through the tagged frame
// reader and the persistent Request decoder, the way serveMux reads a
// connection.  Every failure must be a clean close or a typed
// *FrameError, never a panic, and no claimed length may grow the
// payload buffer past maxFrame.
func FuzzServeFrames(f *testing.F) {
	f.Add(recordSession(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			var req Request
			_, err := fr.next(&req)
			if cap(fr.buf) > maxFrame {
				t.Fatalf("payload buffer grew to %d bytes", cap(fr.buf))
			}
			if err == nil {
				continue
			}
			var fe *FrameError
			if err != io.EOF && !errors.As(err, &fe) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
	})
}
