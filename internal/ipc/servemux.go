package ipc

// Server side of the protocol.  serveConn hands every connection to
// serveMux: a read loop decodes tagged requests and dispatches each
// into a bounded per-connection handler pool, and completions are
// written back as they land — out of order — under a send mutex.  The
// robustness semantics hold per tag: a draining server answers every
// late tag with a clean ErrDraining, the inflight ledger spans every
// admitted tag (so Shutdown waits for all of them), and a handler
// panic is contained to its connection, never the accept loop.

import (
	"crypto/hmac"
	"net"
	"sync"

	"omos/internal/fault"
)

// muxConn is the send half of one connection: a persistent gob
// encoder into a reused frame buffer, serialized by sendMu so
// concurrent handlers interleave whole frames, never bytes.
type muxConn struct {
	conn   net.Conn
	faults *fault.Set

	sendMu sync.Mutex
	w      *frameWriter
}

// write seals and sends one tagged completion in a single conn.Write.
func (m *muxConn) write(tag uint64, resp *Response) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	frame, err := m.w.frame(tag, resp)
	if err != nil {
		return err
	}
	// Corrupt-kind rules at ipc.write damage the tag field in place:
	// a deterministic tag-mismatch at the receiver without desyncing
	// the gob payload stream (which damaged length bytes would).
	copy(m.w.sbuf.tagBytes(), m.faults.Corrupt(fault.SiteIPCWrite, m.w.sbuf.tagBytes()))
	_, err = m.conn.Write(frame)
	return err
}

// handlerPool is the per-connection concurrent handler bound.
func (s *Server) handlerPool() int {
	if s.HandlerPool > 0 {
		return s.HandlerPool
	}
	return DefaultHandlerPool
}

// helloState is one connection's mesh-auth state, owned by its read
// loop: the outstanding challenge and the client nonce it answers,
// and whether a proof has been accepted.
type helloState struct {
	challenge, clientNonce string
	authed                 bool
}

// hello answers one OpHello frame.  A hello carrying a client nonce
// asks for a challenge: a server with a mesh secret draws a fresh one
// (never client-chosen, so a proof captured off one connection never
// authenticates another); a secretless server answers without one.  A
// hello carrying a proof (Blob) is checked against the outstanding
// challenge, which it consumes.  A wrong proof is acknowledged all the
// same — only the mesh operations are gated.  An error (no secure
// randomness for the challenge) means the connection must be dropped
// rather than authenticated against a guessable nonce.
func (s *Server) hello(h *helloState, req *Request) (*Response, error) {
	if len(req.Blob) > 0 {
		h.authed = h.challenge != "" &&
			hmac.Equal(req.Blob, meshProof(s.MeshSecret, h.challenge, h.clientNonce))
		h.challenge = ""
		return &Response{}, nil
	}
	h.challenge, h.clientNonce = "", ""
	if s.MeshSecret == "" || req.Unit == "" {
		return &Response{}, nil
	}
	c, err := meshNonce()
	if err != nil {
		return nil, err
	}
	h.challenge, h.clientNonce = c, req.Unit
	return &Response{Output: c}, nil
}

// serveMux runs one connection until it dies or the drain deadline
// expires.  Hello frames are answered inline, so the connection's
// authenticated mark is settled before any later frame is dispatched.
// Every other request takes a pool slot (blocking when the pool is
// saturated — backpressure reaches the peer through the transport)
// and runs in its own goroutine, so a slow request never delays the
// tags behind it.
func (s *Server) serveMux(conn net.Conn) {
	m := &muxConn{conn: conn, faults: s.faults, w: newFrameWriter()}
	fr := newFrameReader(conn)
	var auth helloState
	pool := make(chan struct{}, s.handlerPool())
	var handlers sync.WaitGroup
	defer func() {
		// Close first so a handler blocked writing cannot stall the
		// teardown, then wait so the connection is not unregistered
		// (by serveConn) while handlers still reference it.
		conn.Close()
		handlers.Wait()
	}()
	for {
		if err := s.faults.Fire(fault.SiteIPCRead); err != nil {
			return // simulated receive failure: drop the connection
		}
		req := new(Request)
		tag, err := fr.next(req)
		if err != nil {
			// EOF, a drain-deadline expiry, or a damaged frame: all
			// fatal to this connection only.
			return
		}
		if req.Op == OpHello {
			resp, err := s.hello(&auth, req)
			if err != nil || !s.complete(m, tag, resp) {
				return
			}
			continue
		}
		// Admit under the lock: a tag is either in the inflight
		// ledger before Shutdown flips closed (and thus drained), or
		// refused per-tag with a clean draining answer.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if err := m.write(tag, &Response{Err: drainingMsg, Final: true}); err != nil {
				return
			}
			continue
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		pool <- struct{}{} // blocks when the pool is saturated
		handlers.Add(1)
		go s.handleTag(m, tag, req, auth.authed, pool, &handlers)
	}
}

// complete writes a request's closing (Final) frame.  A failed write,
// or an injected ipc.write fault, drops the connection: the peer fails
// every tag still parked on it and redials.
func (s *Server) complete(m *muxConn, tag uint64, resp *Response) bool {
	resp.Final = true
	if s.faults.Fire(fault.SiteIPCWrite) != nil || m.write(tag, resp) != nil {
		m.conn.Close()
		return false
	}
	return true
}

// handleTag runs one admitted request and writes its completion(s).
func (s *Server) handleTag(m *muxConn, tag uint64, req *Request, authed bool, pool chan struct{}, handlers *sync.WaitGroup) {
	defer handlers.Done()
	defer func() { <-pool }()
	defer s.inflight.Done()
	defer func() {
		// An escaped panic (e.g. an injected write fault of kind
		// panic) costs this connection, never the daemon: the
		// response stream's integrity is unknown, so the connection
		// is shut and the client fails every tag still parked on it.
		if r := recover(); r != nil {
			s.recovered.Add(1)
			m.conn.Close()
		}
	}()
	switch req.Op {
	case OpInstantiateBatch:
		s.handleBatch(m, tag, req)
	case OpMeshFetch:
		s.handleMeshFetch(m, tag, req, authed)
	default:
		s.complete(m, tag, s.safeHandle(req, authed))
	}
}

// handleBatch streams one batch request: every item lands as its own
// tagged response (Index set, Final false) the moment the executor
// finishes it — out of order, from concurrent goroutines — and a Final
// summary closes the batch.  One inflight credit spans the whole
// batch, so graceful drain waits for every item.  Per-item failures
// (including admission sheds, which carry the retry-after hint) stay
// per item and never abort siblings.
func (s *Server) handleBatch(m *muxConn, tag uint64, req *Request) {
	bb, ok := s.b.(BatchBackend)
	if !ok {
		s.complete(m, tag, &Response{Err: "backend does not support batch instantiation"})
		return
	}
	bb.InstantiateBatch(req.Args, func(i int, err error) {
		resp := &Response{Index: i}
		if err != nil {
			applyError(resp, err)
		}
		// A dead connection fails every write; the batch still runs
		// to completion server-side (the work is cache-warming — not
		// wasted).
		m.write(tag, resp)
	})
	s.complete(m, tag, &Response{})
}

// handleMeshFetch streams one mesh fetch: a metadata-only or not-found
// reply is a single Final frame, while a blob reply travels as
// meshChunk-sized chunk frames (Index set, Final false) closed by a
// Final frame carrying the MeshInfo.  The chunks are written
// sequentially from this one goroutine, so they arrive in order.
func (s *Server) handleMeshFetch(m *muxConn, tag uint64, req *Request, authed bool) {
	resp := s.safeHandle(req, authed)
	blob := resp.Blob
	resp.Blob = nil
	for i := 0; len(blob) > 0; i++ {
		n := len(blob)
		if n > meshChunk {
			n = meshChunk
		}
		if err := m.write(tag, &Response{Index: i, Blob: blob[:n]}); err != nil {
			m.conn.Close()
			return
		}
		blob = blob[n:]
	}
	s.complete(m, tag, resp)
}
