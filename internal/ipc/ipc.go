// Package ipc implements the wire protocol through which external
// clients talk to a running OMOS daemon (cmd/omosd), mirroring the
// paper's client/server split: the server is a persistent process that
// outlives program invocations, and clients reach it over a message
// channel.
//
// The protocol is tagged, length-prefixed gob over any net.Conn (see
// frame.go).  Operations cover namespace management (define,
// put-object, list, remove) and program execution inside the daemon's
// simulated machine.  Every frame carries a client-assigned request
// tag, so one connection carries any number of in-flight calls,
// completions return out of order, and OpInstantiateBatch and
// OpMeshFetch stream their results as several frames under one tag.
//
// Failure model: frame-level damage (truncated, oversized, or
// malformed frames) surfaces as *FrameError and costs only the one
// connection it arrived on.  Calls carry deadlines that surface as
// context.DeadlineExceeded.  Idempotent operations retry with bounded
// exponential backoff and transparent reconnect; a draining server
// answers with ErrDraining rather than a reset.
package ipc

import (
	"context"
	"crypto/hmac"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies a request operation.
type Op string

// Protocol operations.
const (
	OpPing      Op = "ping"
	OpDefine    Op = "define"     // Path, Text (blueprint)
	OpDefineLib Op = "define-lib" // Path, Text (blueprint)
	OpPutObject Op = "put-object" // Path, Blob (encoded ROF)
	OpAssemble  Op = "assemble"   // Path, Text (assembly source)
	OpCompile   Op = "compile"    // Path (dir), Unit, Text (mini-C)
	OpList      Op = "list"       // Path (prefix)
	OpRemove    Op = "remove"     // Path
	OpRun       Op = "run"        // Path, Args; integrated exec
	OpRunBoot   Op = "run-boot"   // Path, Args; bootstrap exec
	OpDisasm    Op = "disasm"     // Path (object); returns listing
	OpGetMeta   Op = "get-meta"   // Path; returns blueprint source + library flag
	OpGetObject Op = "get-object" // Path; returns encoded ROF bytes
	OpHealth    Op = "health"     // daemon state + every counter (HealthInfo)
	OpGraph     Op = "graph"      // build-graph report (runs, nodes, events)
	OpExplain   Op = "explain"    // Path (symbol name); binding audit trail
	// OpUpgrade drives a live-upgrade epoch; Unit selects the phase:
	// "start" (Text: canary percentage, returns the epoch id in Text),
	// "stage" (Path + Text blueprint, Args[0] "lib"/"prog"), or
	// "commit".  OpRollback aborts the epoch (Text: reason);
	// OpUpgradeStatus reports the engine state (Text: status line,
	// Flag: epoch active).
	OpUpgrade       Op = "upgrade"
	OpUpgradeStatus Op = "upgrade-status"
	OpRollback      Op = "rollback"
	// OpHello is mesh peer authentication, a challenge-response sent
	// only by a client configured with the mesh secret, as its first
	// frames: a hello whose Unit is a fresh client nonce asks for a
	// challenge, which a secretful server answers in Output; a second
	// hello carries Blob = meshProof(secret, challenge, client nonce),
	// which the server verifies (hmac.Equal) before reading the next
	// frame.  A wrong proof still gets an ack — only the mesh
	// operations are gated on the authenticated mark — and a
	// secretless server answers the first hello with no challenge.
	OpHello Op = "hello"
	// OpInstantiateBatch instantiates a vector of meta-objects (Args)
	// in one request: the server fans the items into its build
	// executor and streams each completion back as its own tagged
	// response (Index set) before a Final summary.
	OpInstantiateBatch Op = "instantiate-batch"
	// Mesh operations federate daemons into a consistent-hash sharded
	// image store (internal/mesh).  All carry Request.Mesh and answer
	// with Response.Mesh; when the serving daemon has a mesh secret
	// configured they require the connection to have authenticated via
	// the HMAC proof on OpHello.  OpMeshFetch asks a content key's ring
	// owner for its image — metadata only when the requester holds a
	// local variant to rebase, otherwise the encoded record blob,
	// streamed in chunks.  OpMeshPut hands the owner a record built
	// elsewhere; OpMeshGossip exchanges anti-entropy digests;
	// OpMeshRebalance announces ring membership for join/leave.  All four are idempotent (content-addressed records
	// make replay harmless).
	OpMeshFetch     Op = "mesh-fetch"
	OpMeshPut       Op = "mesh-put"
	OpMeshGossip    Op = "mesh-gossip"
	OpMeshRebalance Op = "mesh-rebalance"
)

// meshProof computes the shared-secret proof of the mesh handshake:
// HMAC-SHA256(secret, server nonce || "|" || client nonce).  The
// server nonce is a fresh challenge the server issues per connection,
// so a captured proof is useless on any other connection (true
// challenge-response, not a client-chosen nonce); the client nonce
// binds the proof to the hello that asked for the challenge.  Nonces
// are fixed-width hex, so the "|" separator makes the MAC input
// injective.
func meshProof(secret, serverNonce, clientNonce string) []byte {
	mac := hmac.New(sha256.New, []byte(secret))
	io.WriteString(mac, serverNonce)
	io.WriteString(mac, "|")
	io.WriteString(mac, clientNonce)
	return mac.Sum(nil)
}

// meshNonce returns a fresh random handshake nonce (hex).  A failing
// crypto/rand is a broken platform: the handshake errors out rather
// than degrading to a guessable nonce.
func meshNonce() (string, error) {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "", fmt.Errorf("ipc: mesh nonce: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// idempotent reports whether an operation can be retried safely: the
// result of doing it twice is the result of doing it once.  Namespace
// writes qualify (same content, same outcome); Run does not (the
// program may have side effects in the daemon's namespace).
func idempotent(op Op) bool {
	switch op {
	case OpRun, OpRunBoot:
		return false
	case OpUpgrade, OpRollback:
		// Upgrade transitions are not blindly replayable: a retried
		// "start" would refuse (epoch already open) and a retried
		// commit/rollback may race the health gate.  The caller decides.
		return false
	}
	return true
}

// Request is a client message.
type Request struct {
	Op   Op
	Path string
	Unit string
	Text string
	Args []string
	Blob []byte
	// AllowRebind makes a namespace mutation (define/define-lib/remove)
	// explicit about re-binding: without it the daemon rejects any
	// mutation that would silently re-bind a live program's symbol to a
	// different definer (see ErrRebindBlocked).
	AllowRebind bool
	// Mesh carries the payload of the mesh operations.
	Mesh *MeshReq
}

// MeshReq is the request payload of the mesh operations.
type MeshReq struct {
	// From is the sender's advertised mesh address (its ring member
	// ID); the owner keys its per-peer admission gate on it.
	From string
	// CKey is the content key being fetched or offered.
	CKey string
	// TextBase and DataBase are the requester's placement for a fetch,
	// echoed so the owner can report what a rebase must slide to.
	TextBase, DataBase uint64
	// HaveBytes tells the owner the requester already holds a local
	// variant of CKey: a metadata-only reply suffices and the requester
	// rebases locally.
	HaveBytes bool
	// Blob is the encoded store record of a put.
	Blob []byte
	// Gen is the sender's namespace generation (gossip) or the
	// announced membership epoch (rebalance; see mesh.Node).
	Gen uint64
	// Keys lists content keys: digests the sender holds for the
	// receiver (gossip), or the full ring membership (rebalance).
	Keys []string
}

// MeshInfo is the response payload of the mesh operations.
type MeshInfo struct {
	// Found reports whether the owner holds the fetched content key
	// (fetch), or whether an announced membership was applied as sent
	// (rebalance; false flags a stale or conflicting announce).
	Found bool
	// MetaOnly marks a metadata-only fetch reply: no bytes followed,
	// the requester rebases its local variant instead.
	MetaOnly bool
	// Link-time invariants of the owner's build, for validating the
	// requester's local variant before a metadata-only rebase.
	AbsPatches, RelPatches, Syms int
	TextSize, DataSize           uint64
	// Size is the total blob length of a streamed fetch.
	Size uint64
	// Gen is the responder's namespace generation (gossip) or its
	// membership epoch after processing an announce (rebalance).
	Gen uint64
	// Want lists content keys the responder would like pushed
	// (gossip), or the responder's ring membership after processing an
	// announce (rebalance) so the announcer can detect divergence.
	Want []string
}

// Response is the server's reply.
type Response struct {
	Err      string
	Text     string
	Paths    []string
	Blob     []byte
	Flag     bool
	ExitCode uint64
	Output   string
	Health   *HealthInfo
	// Clock components (user, sys, server, wait cycles).
	User, Sys, Server, Wait uint64
	// RetryAfterMS accompanies an overloaded error: the server's hint,
	// in milliseconds, of when capacity should free up.
	RetryAfterMS int64
	// Index and Final frame streamed completions: each batch item
	// (OpInstantiateBatch) or blob chunk (OpMeshFetch) answers with its
	// Index and Final false, and the request closes with a Final frame
	// carrying any request-level error.  Every other request answers
	// with one Final frame.
	Index int
	Final bool
	// Rebind and Pin carry the structured detail of a typed rebind /
	// pin-violation rejection (Err is rebindMsg / pinViolationMsg).
	Rebind *RebindInfo
	Pin    *PinInfo
	// Upgrade carries the structured detail of an aborted live upgrade
	// (Err is upgradeAbortedMsg).
	Upgrade *UpgradeAbortedInfo
	// Mesh carries the payload of the mesh operations.
	Mesh *MeshInfo
}

// maxFrame bounds a single message (largest realistic payload is a
// workload blueprint of a few hundred KB).
const maxFrame = 16 << 20

// drainingMsg is the wire form of ErrDraining (Response.Err is a
// string; the client maps it back to the sentinel).
const drainingMsg = "server draining"

// ErrDraining is returned by Client.Call when the daemon has begun
// graceful shutdown: the request was refused cleanly, not reset
// mid-exchange.  Point the client at another server or give up.
var ErrDraining = errors.New("ipc: server draining")

// overloadedMsg is the wire form of an admission-gate rejection (like
// drainingMsg, the client maps it back to a typed error).
const overloadedMsg = "server overloaded"

// ErrOverloaded is the sentinel for admission-gate rejections: match
// with errors.Is.  The concrete error is an *OverloadedError carrying
// the backoff to honor.
var ErrOverloaded = errors.New("ipc: server overloaded")

// OverloadedError reports a request shed by the daemon's admission
// gate before any work was done — always safe to retry after
// RetryAfter.  It is also what a tripped client circuit breaker
// returns, with RetryAfter the time left until the next probe.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("ipc: server overloaded, retry after %v", e.RetryAfter)
}

// Is lets errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// rebindMsg is the wire form of a rebind rejection: a namespace
// mutation that would silently re-bind a live program's symbol to a
// different definer, refused because the request did not set
// AllowRebind.
const rebindMsg = "rebind blocked"

// ErrRebindBlocked is the sentinel for rebind rejections: match with
// errors.Is.  The concrete error is a *RebindError carrying the
// mutation, the program, and the symbol at stake.
var ErrRebindBlocked = errors.New("ipc: rebind blocked")

// RebindInfo is the structured detail of a rebind rejection.
type RebindInfo struct {
	Mutation string // "define", "remove", "mount", "unmount"
	Path     string // the path or prefix being mutated
	Program  string // an image whose resolution would change
	Symbol   string // one symbol bound through the mutated path
	Definer  string // its current definer
}

// RebindError is the typed client-side form of a rebind rejection.
// Repeat the mutation with AllowRebind set to make it explicit.
type RebindError struct {
	RebindInfo
}

func (e *RebindError) Error() string {
	if e.Program == "" {
		return "ipc: rebind blocked (set AllowRebind to proceed)"
	}
	return fmt.Sprintf("ipc: %s %s blocked: would re-bind %q of %s away from %s (set AllowRebind to proceed)",
		e.Mutation, e.Path, e.Symbol, e.Program, e.Definer)
}

// Is lets errors.Is(err, ErrRebindBlocked) match.
func (e *RebindError) Is(target error) bool { return target == ErrRebindBlocked }

// pinViolationMsg is the wire form of a pin violation: a pinned image
// whose library identities no longer match what it was linked
// against, rejected and quarantined by the loader instead of run.
const pinViolationMsg = "pin violation"

// ErrPinViolation is the sentinel for pin violations: match with
// errors.Is.  The concrete error is a *PinViolationError.
var ErrPinViolation = errors.New("ipc: pin violation")

// PinInfo is the structured detail of a pin violation.
type PinInfo struct {
	Image string // the pinned image that was rejected
	Lib   string // the library whose identity mismatched
	Field string // which identity: "content-key", "checksum", "lib-key", "libs", "injected"
	Want  string
	Got   string
}

// PinViolationError is the typed client-side form of a pin violation.
// The offending image was quarantined; retrying rebuilds and re-pins
// it from source.
type PinViolationError struct {
	PinInfo
}

func (e *PinViolationError) Error() string {
	if e.Image == "" {
		return "ipc: pin violation (image quarantined; retry rebuilds)"
	}
	return fmt.Sprintf("ipc: pin violation: %s library %s %s mismatch (pinned %s, found %s); image quarantined, retry rebuilds",
		e.Image, e.Lib, e.Field, e.Want, e.Got)
}

// Is lets errors.Is(err, ErrPinViolation) match.
func (e *PinViolationError) Is(target error) bool { return target == ErrPinViolation }

// upgradeAbortedMsg is the wire form of an aborted live upgrade: the
// epoch was rolled back (by the health gate or an operator) and the
// attempted upgrade operation cannot proceed.
const upgradeAbortedMsg = "upgrade aborted"

// ErrUpgradeAborted is the sentinel for aborted live upgrades: match
// with errors.Is.  The concrete error is an *UpgradeAbortedError.
var ErrUpgradeAborted = errors.New("ipc: upgrade aborted")

// UpgradeAbortedInfo is the structured detail of an aborted upgrade.
type UpgradeAbortedInfo struct {
	Epoch   string // the epoch that was rolled back
	Verdict string // the triggering health-gate or operator verdict
	Auto    bool   // true when the health gate pulled the trigger
}

// UpgradeAbortedError is the typed client-side form of an aborted
// upgrade.  The namespace is back on the pre-upgrade version; starting
// a fresh epoch is the way forward.
type UpgradeAbortedError struct {
	UpgradeAbortedInfo
}

func (e *UpgradeAbortedError) Error() string {
	if e.Epoch == "" {
		return "ipc: upgrade aborted (epoch rolled back)"
	}
	how := "rolled back"
	if e.Auto {
		how = "automatically rolled back by the health gate"
	}
	return fmt.Sprintf("ipc: upgrade %s %s: %s", e.Epoch, how, e.Verdict)
}

// Is lets errors.Is(err, ErrUpgradeAborted) match.
func (e *UpgradeAbortedError) Is(target error) bool { return target == ErrUpgradeAborted }

// FrameError reports a damaged protocol frame: truncated mid-message,
// an oversized length prefix, a payload gob cannot decode, or (client
// side) a completion for a tag never issued.  It is fatal to the one
// connection it arrived on — never to the accept loop.
type FrameError struct {
	Reason string // "truncated", "oversized", "malformed", "tag-mismatch"
	Size   uint32 // claimed frame size, when meaningful
	Err    error  // underlying error, when any
}

func (e *FrameError) Error() string {
	if e.Size > 0 {
		return fmt.Sprintf("ipc: %s frame (%d bytes)", e.Reason, e.Size)
	}
	if e.Err != nil {
		return fmt.Sprintf("ipc: %s frame: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("ipc: %s frame", e.Reason)
}

func (e *FrameError) Unwrap() error { return e.Err }

// Options tunes a Client's robustness behavior.  The zero value means
// no timeouts and no retries (the pre-hardening behavior, still right
// for tests that want to observe raw transport failures).
type Options struct {
	// ConnectTimeout bounds Dial and any transparent reconnect.
	ConnectTimeout time.Duration
	// CallTimeout bounds each Call exchange (write + read).  Exceeding
	// it surfaces context.DeadlineExceeded.
	CallTimeout time.Duration
	// Retries is the number of additional attempts for idempotent
	// operations after a transport failure.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// attempt.  Defaults to 10ms when Retries > 0.
	Backoff time.Duration
	// MeshSecret, when set, makes each new session open with the
	// hello exchange: request a server challenge and answer it with an
	// HMAC-SHA256 proof of the shared mesh secret, so the server marks
	// the connection as an authenticated peer (required for mesh
	// operations against a secretful daemon).  Affects sessions
	// established after it is set.
	MeshSecret string
}

// DefaultOptions is the tuning cmd/omos ships with: fail a dead
// server fast, ride out a transient hiccup.
var DefaultOptions = Options{
	ConnectTimeout: 5 * time.Second,
	CallTimeout:    2 * time.Minute,
	Retries:        2,
	Backoff:        25 * time.Millisecond,
}

// Client is a connection to an OMOS daemon.  It is safe for
// concurrent use.  Many calls share one connection: each is assigned
// a monotonically increasing tag, writes its frame under a brief send
// lock, and parks on a per-tag channel while a single reader goroutine
// demultiplexes completions to waiters — so one connection carries
// hundreds of in-flight calls and a slow request never blocks the
// fast ones behind it.
//
// There is deliberately no big client lock: options are read
// atomically, the breaker and the jitter rng have their own small
// mutexes, and the session pointer is guarded only around
// dial/redial/close — never across an exchange.
type Client struct {
	addr string // for transparent reconnect; "" disables

	// opts is read atomically once at the top of every call, so
	// SetOptions is safe under concurrent Calls and each call sees one
	// coherent Options value.
	opts atomic.Pointer[Options]

	// connMu guards the session pointer (dial, redial, close).
	connMu sync.Mutex
	sess   *session
	closed bool

	// Circuit breaker against a shedding server (guarded by brMu).
	// An overloaded response trips it open for max(server hint,
	// doubled prior hold) plus jitter; while open, calls fail fast
	// with an *OverloadedError instead of piling onto the overloaded
	// server.  When the hold expires the breaker is half-open: the
	// next call through is a probe, and its success closes the
	// breaker.
	brMu        sync.Mutex
	brOpenUntil time.Time
	brHold      time.Duration

	// rng drives retry jitter (guarded by rngMu; private so
	// concurrent clients never contend on the global source).
	rngMu sync.Mutex
	rng   *rand.Rand
}

// Dial connects to a daemon with zero Options.
func Dial(addr string) (*Client, error) { return DialWith(addr, Options{}) }

// DialWith connects to a daemon with explicit robustness tuning.  With
// a MeshSecret the hello exchange happens lazily on the first call,
// so its failures flow through that call's retry budget.
func DialWith(addr string, opts Options) (*Client, error) {
	conn, err := dialAddr(addr, opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, sess: newSession(conn, opts.MeshSecret)}
	c.opts.Store(&opts)
	return c, nil
}

func dialAddr(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return net.Dial("tcp", addr)
}

// NewClient wraps an existing connection.  No reconnect is possible
// (the client does not know how the connection was made).
func NewClient(conn net.Conn) *Client {
	return &Client{sess: newSession(conn, "")}
}

// SetOptions replaces the client's robustness tuning.  Safe to call
// concurrently with Call: in-flight calls finish under the options
// they started with; later calls see the new value.  MeshSecret
// affects only sessions established afterwards.
func (c *Client) SetOptions(opts Options) { c.opts.Store(&opts) }

// options snapshots the current tuning.
func (c *Client) options() Options {
	if o := c.opts.Load(); o != nil {
		return *o
	}
	return Options{}
}

// Close closes the connection.  In-flight calls on a multiplexed
// session fail with a transport error.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed = true
	if c.sess != nil {
		return c.sess.close()
	}
	return nil
}

// session returns the live session, redialing if the previous one
// died (and the client knows its address).
func (c *Client) session(opts Options) (*session, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil, errors.New("ipc: client closed")
	}
	if c.sess != nil && !c.sess.isDead() {
		return c.sess, nil
	}
	if c.sess != nil {
		c.sess.close()
		c.sess = nil
	}
	if c.addr == "" {
		return nil, errors.New("ipc: connection lost (no address to redial)")
	}
	conn, err := dialAddr(c.addr, opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	c.sess = newSession(conn, opts.MeshSecret)
	return c.sess, nil
}

// Call performs one request/response exchange under the client's
// configured CallTimeout.
func (c *Client) Call(req *Request) (*Response, error) {
	return c.CallCtx(context.Background(), req)
}

// CallCtx performs one request/response exchange bounded by both ctx
// and the configured CallTimeout (whichever deadline is sooner).  A
// deadline overrun surfaces as context.DeadlineExceeded.  Transport
// failures on idempotent operations are retried with jittered
// exponential backoff and at most one transparent reconnect; an
// application-level error in the response is never retried — except an
// overload shed, which happened before any work and so is retried
// (honoring the server's retry-after hint) for every operation, even
// non-idempotent ones.  A call arriving while the circuit breaker is
// open fails fast with an *OverloadedError instead of touching the
// network.
func (c *Client) CallCtx(ctx context.Context, req *Request) (*Response, error) {
	opts := c.options()

	// Breaker open: don't even pile this request onto the server.
	if rem := c.breakerRemaining(); rem > 0 {
		return nil, fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: rem})
	}

	transportLeft := 0
	if idempotent(req.Op) {
		transportLeft = opts.Retries
	}
	// Session establishment (redial + mesh hello) happens
	// before the request is transmitted, so its failures are
	// retry-safe for every op, from their own budget.  Overload sheds
	// likewise happen before any server-side work.
	preSendLeft := opts.Retries
	overloadLeft := opts.Retries
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for {
		resp, err := c.exchange(ctx, req, opts)
		if err == nil {
			switch {
			case resp.Err == drainingMsg:
				// Clean refusal: the server is going away; retrying
				// this connection cannot help.
				return resp, fmt.Errorf("omosd: %w", ErrDraining)
			case resp.Err == overloadedMsg:
				hint := time.Duration(resp.RetryAfterMS) * time.Millisecond
				hold := c.tripBreaker(hint)
				if overloadLeft > 0 {
					overloadLeft--
					// Wait out the hold, then this call is the
					// half-open probe.
					if err := sleepCtx(ctx, hold); err != nil {
						return nil, err
					}
					continue
				}
				return resp, fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: hold})
			case resp.Err == rebindMsg:
				// Typed refusal: the mutation needs an explicit
				// AllowRebind.  The server is healthy.
				c.resetBreaker()
				re := &RebindError{}
				if resp.Rebind != nil {
					re.RebindInfo = *resp.Rebind
				}
				return resp, fmt.Errorf("omosd: %w", re)
			case resp.Err == pinViolationMsg:
				// Typed refusal: the hijack defense rejected a pinned
				// image.  Retrying is the caller's choice (it rebuilds).
				c.resetBreaker()
				pe := &PinViolationError{}
				if resp.Pin != nil {
					pe.PinInfo = *resp.Pin
				}
				return resp, fmt.Errorf("omosd: %w", pe)
			case resp.Err == upgradeAbortedMsg:
				// Typed refusal: the epoch was rolled back; the server
				// is healthy and serving the pre-upgrade version.
				c.resetBreaker()
				ue := &UpgradeAbortedError{}
				if resp.Upgrade != nil {
					ue.UpgradeAbortedInfo = *resp.Upgrade
				}
				return resp, fmt.Errorf("omosd: %w", ue)
			case resp.Err != "":
				// Any ordinary application error still proves the
				// server is answering; a half-open probe may close the
				// breaker on it.
				c.resetBreaker()
				return resp, fmt.Errorf("omosd: %s", resp.Err)
			}
			c.resetBreaker()
			return resp, nil
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// A timed-out call just abandons its tag and the
			// connection lives on; the deadline is the caller's
			// answer.
			return nil, err
		}
		var pre *preSendError
		if errors.As(err, &pre) {
			// The request never hit the wire: dial or hello
			// failure, retryable even for non-idempotent ops.
			if preSendLeft <= 0 {
				return nil, pre.err
			}
			preSendLeft--
		} else {
			// Transport failure mid-exchange: the session is dead and
			// the next attempt redials.  Only idempotent ops may
			// retry — the request may have been acted on.
			if transportLeft <= 0 {
				return nil, err
			}
			transportLeft--
		}
		if err := sleepCtx(ctx, c.jitter(backoff)); err != nil {
			return nil, err
		}
		backoff *= 2
	}
}

// preSendError marks a failure that happened before the request was
// transmitted (dial, mesh hello): retrying is safe for every
// operation.
type preSendError struct{ err error }

func (e *preSendError) Error() string { return e.err.Error() }
func (e *preSendError) Unwrap() error { return e.err }

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jitter spreads a backoff over [d/2, 3d/2) so a herd of clients shed
// together does not retry together.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// breaker hold bounds: never retry sooner than the floor even with no
// server hint; never lock a client out longer than the cap.
const (
	minBreakerHold = 5 * time.Millisecond
	maxBreakerHold = 5 * time.Second
)

// breakerRemaining reports how long the breaker stays open (<= 0 when
// closed or half-open).
func (c *Client) breakerRemaining() time.Duration {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	return time.Until(c.brOpenUntil)
}

// BreakerOpen reports whether the client's circuit breaker is open:
// calls fail fast with *OverloadedError, without a round trip, until
// the hold expires.  Mesh nodes keep one client per peer, so this is
// the per-peer breaker state.
func (c *Client) BreakerOpen() bool { return c.breakerRemaining() > 0 }

// tripBreaker opens the breaker after an overloaded response and
// returns the jittered hold (at least the server's hint; doubling
// while sheds repeat).
func (c *Client) tripBreaker(hint time.Duration) time.Duration {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	base := c.brHold * 2
	if hint > base {
		base = hint
	}
	if base < minBreakerHold {
		base = minBreakerHold
	}
	if base > maxBreakerHold {
		base = maxBreakerHold
	}
	c.brHold = base
	// Jitter only upward: retrying before the server's hint is wasted.
	hold := base + c.jitter(base/4)
	c.brOpenUntil = time.Now().Add(hold)
	return hold
}

// resetBreaker closes the breaker after any successful exchange.
func (c *Client) resetBreaker() {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	c.brHold = 0
	c.brOpenUntil = time.Time{}
}

// callDeadline resolves the sooner of the configured CallTimeout and
// the context deadline (zero when neither applies).
func callDeadline(ctx context.Context, opts Options) time.Time {
	deadline := time.Time{}
	if opts.CallTimeout > 0 {
		deadline = time.Now().Add(opts.CallTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	return deadline
}

// open gets (or redials) the session for one attempt, completes the
// mesh hello if this is its first use, and resolves the attempt's
// deadline.  Its failures happen before the request is transmitted,
// so they come back as *preSendError.
func (c *Client) open(ctx context.Context, opts Options) (*session, time.Time, error) {
	if err := ctx.Err(); err != nil {
		return nil, time.Time{}, err
	}
	s, err := c.session(opts)
	if err != nil {
		return nil, time.Time{}, &preSendError{err: err}
	}
	deadline := callDeadline(ctx, opts)
	if err := s.ensureHello(ctx, deadline); err != nil {
		return nil, time.Time{}, &preSendError{err: mapTimeout(err)}
	}
	return s, deadline, nil
}

// exchange performs one attempt of a single-completion call.  I/O
// timeouts map to context.DeadlineExceeded.
func (c *Client) exchange(ctx context.Context, req *Request, opts Options) (*Response, error) {
	s, deadline, err := c.open(ctx, opts)
	if err != nil {
		return nil, err
	}
	return s.call(ctx, deadline, req)
}

// mapTimeout converts net timeout errors into context.DeadlineExceeded
// so callers see one canonical deadline error.
func mapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("ipc: call: %w", context.DeadlineExceeded)
	}
	return err
}
