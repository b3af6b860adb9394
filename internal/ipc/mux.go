package ipc

// Client side of the protocol: the session type.  A session is one
// connection with a single reader goroutine that demultiplexes tagged
// completions to per-call channels, so any number of calls share the
// connection.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// session is one client connection.  Its reader goroutine starts with
// it; a session holding a mesh secret runs the hello exchange on first
// use (so connect-time failures flow through that call's retry
// budget) before any other request goes out.
type session struct {
	conn net.Conn
	// secret, when set, makes the first use ask the server for a
	// challenge and answer it with a mesh-peer HMAC proof (see
	// meshProof) so the server authenticates this connection.
	secret string

	// Hello state, serialized by helloMu.
	helloMu   sync.Mutex
	helloDone bool
	helloErr  error

	// dead flips once the session is unusable; the client redials.
	dead atomic.Bool

	// Send side (guarded by sendMu): a persistent gob encoder into the
	// reused frame buffer — type descriptors cross once, frames go out
	// in a single write each, no allocation in steady state.
	sendMu sync.Mutex
	w      *frameWriter

	// Receive side: the tag table shared between callers and the
	// reader goroutine (guarded by tagMu).  err is set exactly once,
	// before done closes; calls is nil afterwards.
	tagMu   sync.Mutex
	nextTag uint64
	calls   map[uint64]*pending
	err     error
	done    chan struct{}
}

// pending is one in-flight tag: the channel is buffered with the
// expected completion count (1 for a call, items+1 for a batch) so
// the reader never blocks delivering and a duplicate completion is
// detectably droppable.
type pending struct {
	tag uint64
	ch  chan *Response
}

func newSession(conn net.Conn, secret string) *session {
	s := &session{
		conn:   conn,
		secret: secret,
		w:      newFrameWriter(),
		calls:  make(map[uint64]*pending),
		done:   make(chan struct{}),
	}
	go s.readLoop()
	return s
}

func (s *session) isDead() bool { return s.dead.Load() }

// close tears the session down; in-flight calls fail with a transport
// error when the reader notices.
func (s *session) close() error {
	s.dead.Store(true)
	return s.conn.Close()
}

// ensureHello runs the mesh hello on first use of a session holding a
// secret: a hello carrying a fresh client nonce, then — when the
// server answers with a challenge — a hello carrying the proof.  Other
// callers wait on helloMu, so no request overtakes the proof.  A
// failure poisons the session; the caller's retry redials.
func (s *session) ensureHello(ctx context.Context, deadline time.Time) error {
	if s.secret == "" {
		return nil
	}
	s.helloMu.Lock()
	defer s.helloMu.Unlock()
	if s.helloDone {
		return s.helloErr
	}
	s.helloDone = true
	s.helloErr = s.hello(ctx, deadline)
	if s.helloErr != nil {
		s.close()
	}
	return s.helloErr
}

func (s *session) hello(ctx context.Context, deadline time.Time) error {
	nonce, err := meshNonce()
	if err != nil {
		return err
	}
	ack, err := s.call(ctx, deadline, &Request{Op: OpHello, Unit: nonce})
	if err != nil {
		return err
	}
	if ack.Output == "" {
		return nil // a secretless server issues no challenge
	}
	_, err = s.call(ctx, deadline, &Request{Op: OpHello, Blob: meshProof(s.secret, ack.Output, nonce)})
	return err
}

// readLoop is the session's reader goroutine: it demultiplexes tagged
// completions to parked callers.  Any failure fails the whole session
// — every parked call errors out and the client redials.
func (s *session) readLoop() {
	fr := newFrameReader(s.conn)
	for {
		resp := new(Response)
		tag, err := fr.next(resp)
		if err != nil {
			s.fail(err)
			return
		}
		s.tagMu.Lock()
		p, ok := s.calls[tag]
		issued := tag > 0 && tag <= s.nextTag
		s.tagMu.Unlock()
		if !ok {
			if issued {
				// Late completion for an abandoned (timed-out or
				// canceled) tag: discard; the connection is healthy.
				continue
			}
			// A tag this session never issued: the stream is corrupt
			// (bit damage, a confused server).  Nothing on it can be
			// trusted any more.
			s.fail(&FrameError{Reason: "tag-mismatch",
				Err: fmt.Errorf("completion for tag %d, never issued", tag)})
			return
		}
		select {
		case p.ch <- resp:
		default:
			// Duplicate completion beyond the tag's expected count:
			// drop it; the tag's caller already has its answer and
			// the connection survives.
		}
	}
}

// fail marks the session dead with err: parked calls wake via done,
// later registrations are refused.  Idempotent; the first cause wins.
func (s *session) fail(err error) {
	s.tagMu.Lock()
	if s.err == nil {
		if err == nil {
			err = errors.New("ipc: session closed")
		}
		s.err = err
		s.calls = nil
		close(s.done)
	}
	s.tagMu.Unlock()
	s.dead.Store(true)
	s.conn.Close()
}

// failure returns why the session died (nil while alive).
func (s *session) failure() error {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	return s.err
}

// register assigns the next tag, expecting want completions.
func (s *session) register(want int) (*pending, error) {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	s.nextTag++
	p := &pending{tag: s.nextTag, ch: make(chan *Response, want)}
	s.calls[p.tag] = p
	return p, nil
}

// deregister abandons a tag; a completion arriving later is discarded
// by the reader.
func (s *session) deregister(tag uint64) {
	s.tagMu.Lock()
	if s.calls != nil {
		delete(s.calls, tag)
	}
	s.tagMu.Unlock()
}

// send writes one tagged request frame under the send lock.  A send
// failure fails the session — a partial frame may be on the wire and
// the encoder's stream state is unrecoverable.
func (s *session) send(tag uint64, req *Request, deadline time.Time) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	frame, err := s.w.frame(tag, req)
	if err == nil {
		s.conn.SetWriteDeadline(deadline)
		_, err = s.conn.Write(frame)
	}
	if err != nil {
		s.fail(err)
	}
	return err
}

// stream runs one request: register a tag expecting up to want
// completions, send the frame, and hand each completion to recv until
// recv reports the request finished (its error is the result).  The
// caller parks until then, a session failure, the deadline, or
// cancellation; deadline and cancellation merely abandon the tag —
// the connection stays healthy for everyone else.
func (s *session) stream(ctx context.Context, deadline time.Time, req *Request, want int,
	recv func(*Response) (finished bool, err error)) error {
	p, err := s.register(want)
	if err != nil {
		return err
	}
	defer s.deregister(p.tag)
	if err := s.send(p.tag, req, deadline); err != nil {
		return mapTimeout(err)
	}
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timerC = t.C
	}
	for {
		select {
		case resp := <-p.ch:
			if finished, err := recv(resp); finished {
				return err
			}
		case <-s.done:
			// Completions may have raced in before the failure — the
			// Final may already be buffered.
			for {
				select {
				case resp := <-p.ch:
					if finished, err := recv(resp); finished {
						return err
					}
				default:
					return s.failure()
				}
			}
		case <-timerC:
			return fmt.Errorf("ipc: call: %w", context.DeadlineExceeded)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// call is one request answered by a single completion.
func (s *session) call(ctx context.Context, deadline time.Time, req *Request) (*Response, error) {
	var resp *Response
	err := s.stream(ctx, deadline, req, 1, func(r *Response) (bool, error) {
		resp = r
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// BatchResult is one item's outcome from InstantiateBatch.
type BatchResult struct {
	Path string
	Err  error
}

// InstantiateBatch asks the daemon to instantiate every named
// meta-object in one request (OpInstantiateBatch), warming its image
// cache in parallel.  Results are positional; a per-item failure
// lands in that item's Err and never aborts its siblings.
func (c *Client) InstantiateBatch(paths []string) ([]BatchResult, error) {
	return c.InstantiateBatchCtx(context.Background(), paths)
}

// InstantiateBatchCtx is InstantiateBatch bounded by ctx and the
// configured CallTimeout.  The per-item completions stream back as
// the server's executor finishes them.  Instantiation is idempotent,
// so transport failures retry with jittered backoff like any
// idempotent call.
func (c *Client) InstantiateBatchCtx(ctx context.Context, paths []string) ([]BatchResult, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	opts := c.options()
	if rem := c.breakerRemaining(); rem > 0 {
		return nil, fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: rem})
	}
	attempts := 1 + opts.Retries
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for {
		results, err := c.batchOnce(ctx, paths, opts)
		if err == nil {
			c.resetBreaker()
			return results, nil
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			errors.Is(err, ErrDraining) {
			return nil, err
		}
		attempts--
		if attempts <= 0 {
			return nil, err
		}
		if serr := sleepCtx(ctx, c.jitter(backoff)); serr != nil {
			return nil, serr
		}
		backoff *= 2
	}
}

// batchOnce performs one batch attempt: one tag carries len(paths)
// item completions plus the Final summary, streamed in whatever order
// the server finishes them.
func (c *Client) batchOnce(ctx context.Context, paths []string, opts Options) ([]BatchResult, error) {
	s, deadline, err := c.open(ctx, opts)
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(paths))
	for i := range results {
		results[i].Path = paths[i]
	}
	req := &Request{Op: OpInstantiateBatch, Args: paths}
	err = s.stream(ctx, deadline, req, len(paths)+1, func(resp *Response) (bool, error) {
		if !resp.Final {
			if i := resp.Index; i >= 0 && i < len(results) {
				results[i].Err = batchItemError(resp)
			}
			return false, nil
		}
		switch {
		case resp.Err == drainingMsg:
			return true, fmt.Errorf("omosd: %w", ErrDraining)
		case resp.Err != "":
			return true, fmt.Errorf("omosd: %s", resp.Err)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// meshChunk is the blob chunk size OpMeshFetch streams: large enough
// to amortize framing, small enough that a blob transfer never
// monopolizes the connection's send lock.
const meshChunk = 256 << 10

// maxMeshChunks bounds a streamed fetch's chunk count (a blob is at
// most maxFrame bytes; +1 leaves room for a short tail chunk).
const maxMeshChunks = maxFrame/meshChunk + 1

// MeshFetch asks a mesh peer for a content key's image (OpMeshFetch):
// a metadata-only MeshInfo when the request set HaveBytes and the
// owner confirms a rebase suffices, otherwise the encoded record blob,
// streamed in chunks.  An overload shed trips the per-peer breaker and
// surfaces as *OverloadedError so the caller can fall back to a local
// build immediately.
func (c *Client) MeshFetch(ctx context.Context, mreq *MeshReq) (*MeshInfo, []byte, error) {
	opts := c.options()
	if rem := c.breakerRemaining(); rem > 0 {
		return nil, nil, fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: rem})
	}
	attempts := 1 + opts.Retries
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for {
		info, blob, err := c.meshFetchOnce(ctx, mreq, opts)
		if err == nil {
			c.resetBreaker()
			return info, blob, nil
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			errors.Is(err, ErrDraining) || errors.Is(err, ErrOverloaded) {
			return nil, nil, err
		}
		attempts--
		if attempts <= 0 {
			return nil, nil, err
		}
		if serr := sleepCtx(ctx, c.jitter(backoff)); serr != nil {
			return nil, nil, serr
		}
		backoff *= 2
	}
}

// meshFetchError maps a fetch completion's Err field to a typed error
// (nil for success), tripping the breaker on an overload shed.
func (c *Client) meshFetchError(resp *Response) error {
	switch {
	case resp.Err == "":
		return nil
	case resp.Err == drainingMsg:
		return fmt.Errorf("omosd: %w", ErrDraining)
	case resp.Err == overloadedMsg:
		hold := c.tripBreaker(time.Duration(resp.RetryAfterMS) * time.Millisecond)
		return fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: hold})
	default:
		return fmt.Errorf("omosd: %s", resp.Err)
	}
}

// meshFetchOnce performs one fetch attempt: chunked blob responses
// (Index set) close with a Final frame carrying the MeshInfo.  The
// server writes them sequentially, so they arrive in order.
func (c *Client) meshFetchOnce(ctx context.Context, mreq *MeshReq, opts Options) (*MeshInfo, []byte, error) {
	s, deadline, err := c.open(ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	var info *MeshInfo
	var blob []byte
	req := &Request{Op: OpMeshFetch, Mesh: mreq}
	err = s.stream(ctx, deadline, req, maxMeshChunks+1, func(resp *Response) (bool, error) {
		if !resp.Final {
			blob = append(blob, resp.Blob...)
			return false, nil
		}
		if err := c.meshFetchError(resp); err != nil {
			return true, err
		}
		if resp.Mesh != nil && resp.Mesh.Found && !resp.Mesh.MetaOnly &&
			uint64(len(blob)) != resp.Mesh.Size {
			return true, fmt.Errorf("ipc: mesh fetch: got %d blob bytes, want %d",
				len(blob), resp.Mesh.Size)
		}
		info = resp.Mesh
		return true, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return info, blob, nil
}

// batchItemError maps one streamed item completion to its error: nil,
// a typed *OverloadedError (that item was shed at the admission gate
// — retry-safe), or the server's error text.
func batchItemError(resp *Response) error {
	switch {
	case resp.Err == "":
		return nil
	case resp.Err == overloadedMsg:
		hint := time.Duration(resp.RetryAfterMS) * time.Millisecond
		if hint <= 0 {
			hint = minBreakerHold
		}
		return fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: hint})
	default:
		return fmt.Errorf("omosd: %s", resp.Err)
	}
}
