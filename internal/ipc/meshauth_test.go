package ipc

// Tests of the mesh peer-auth handshake: the hello challenge-response
// must reject a captured proof replayed on a new connection (the
// server nonce is fresh per connection and never client-chosen).

import (
	"context"
	"net"
	"sync"
	"testing"
)

// meshFakeBackend makes the fake backend a MeshBackend so the auth
// gate — not a capability error — decides mesh requests.
type meshFakeBackend struct{ *fakeBackend }

func (meshFakeBackend) MeshFetch(req *MeshReq) (*MeshInfo, []byte, error) {
	return &MeshInfo{Found: false}, nil, nil
}
func (meshFakeBackend) MeshPut(req *MeshReq) error                    { return nil }
func (meshFakeBackend) MeshGossip(req *MeshReq) (*MeshInfo, error)    { return &MeshInfo{}, nil }
func (meshFakeBackend) MeshRebalance(req *MeshReq) (*MeshInfo, error) { return &MeshInfo{}, nil }

// rawConn speaks tagged frames by hand over one connection — the
// raw-wire equivalent of a Client, for handshakes the test drives
// itself.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	w    *frameWriter
	fr   *frameReader
	tag  uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, w: newFrameWriter(), fr: newFrameReader(conn)}
}

// call sends req under the next tag and returns its Final response.
func (r *rawConn) call(req *Request) *Response {
	r.t.Helper()
	r.tag++
	frame, err := r.w.frame(r.tag, req)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.Write(frame); err != nil {
		r.t.Fatal(err)
	}
	for {
		resp := new(Response)
		gotTag, err := r.fr.next(resp)
		if err != nil {
			r.t.Fatal(err)
		}
		if gotTag != r.tag {
			r.t.Fatalf("completion for tag %d, sent %d", gotTag, r.tag)
		}
		if resp.Final {
			return resp
		}
	}
}

// meshFetch is one raw OpMeshFetch.
func (r *rawConn) meshFetch() *Response {
	r.t.Helper()
	return r.call(&Request{Op: OpMeshFetch, Mesh: &MeshReq{From: "raw", CKey: "k"}})
}

// TestMeshHelloReplayRejected pins the challenge-response property: a
// hello and proof captured off one authenticated connection do not
// authenticate a second connection, because the server issues a fresh
// challenge nonce per connection and the proof is bound to it.
func TestMeshHelloReplayRejected(t *testing.T) {
	const secret = "replay-secret"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(meshFakeBackend{newFakeBackend()})
	srv.MeshSecret = secret
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)
	t.Cleanup(func() { l.Close() })
	addr := l.Addr().String()

	// The real client path still authenticates, and concurrent first
	// calls all wait for the proof: none overtakes it.
	c, err := DialWith(addr, Options{MeshSecret: secret})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.MeshFetch(context.Background(), &MeshReq{From: "x", CKey: "k"}); err != nil {
				t.Errorf("authenticated mesh fetch: %v", err)
			}
		}()
	}
	wg.Wait()
	c.Close()

	// Speak the handshake by hand, recording the frames an on-path
	// attacker could capture: the hello (client nonce) and the proof.
	clientNonce, err := meshNonce()
	if err != nil {
		t.Fatal(err)
	}
	conn1 := dialRaw(t, addr)
	hello := &Request{Op: OpHello, Unit: clientNonce}
	ack1 := conn1.call(hello)
	if ack1.Output == "" {
		t.Fatalf("secretful server issued no challenge: %+v", ack1)
	}
	capturedProof := &Request{Op: OpHello, Blob: meshProof(secret, ack1.Output, clientNonce)}
	if fin := conn1.call(capturedProof); fin.Err != "" {
		t.Fatalf("proof ack: %+v", fin)
	}
	if resp := conn1.meshFetch(); resp.Err != "" {
		t.Fatalf("legitimate handshake not authenticated: %q", resp.Err)
	}

	// Replay both captured frames on a fresh connection.  The server
	// must issue a different challenge, so the captured proof fails and
	// mesh operations are refused — while the proof itself is still
	// acknowledged (only mesh ops are gated).
	conn2 := dialRaw(t, addr)
	ack2 := conn2.call(hello)
	if ack2.Output == "" || ack2.Output == ack1.Output {
		t.Fatalf("challenge not fresh per connection: %q then %q", ack1.Output, ack2.Output)
	}
	if fin := conn2.call(capturedProof); fin.Err != "" {
		t.Fatalf("wrong proof must still be acknowledged: %+v", fin)
	}
	if resp := conn2.meshFetch(); resp.Err != meshAuthMsg {
		t.Fatalf("replayed proof: mesh fetch answered %q, want %q", resp.Err, meshAuthMsg)
	}
	if resp := conn2.call(&Request{Op: OpPing}); resp.Err != "" {
		t.Fatalf("client ops gated on an unauthenticated connection: %q", resp.Err)
	}
}
