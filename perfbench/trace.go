package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/daemon"
	"omos/internal/ipc"
	"omos/internal/server"
)

// span is one timed call across a layer boundary.  Req is the
// workload request the call serves (0 for set-up work); Parent is the
// span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Daemon int    `json:"daemon"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.  Spans are recorded
// only while on is set, so the decorators cost one atomic load when
// tracing is off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// open maps a daemon to its open backend spans and the request
	// calls waiting to be matched with them (see begin/claim).
	open map[int]*daemonCalls
}

// daemonCalls is the correlation state of one daemon: client calls in
// flight (by request key) and the backend spans currently open.
type daemonCalls struct {
	calls   []*pendingCall
	backend []openSpan // oldest first
}

// openSpan is a backend span that has started and not ended.
type openSpan struct{ id, req uint64 }

// pendingCall is a client call whose backend span has not started.
type pendingCall struct {
	key     string
	req     uint64
	span    uint64
	claimed bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int]*daemonCalls{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a finished span, giving it an ID if it has none.
func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) calls(d int) *daemonCalls {
	dc := t.open[d]
	if dc == nil {
		dc = &daemonCalls{}
		t.open[d] = dc
	}
	return dc
}

// begin registers a client call about to be sent to daemon d; the
// pending call's span field is the ID its client span carries.  The
// daemon side cannot see the request ID (it is not on the wire), so
// the backend decorator claims the oldest unclaimed call with the same
// key: identical concurrent calls are interchangeable for timing.
func (t *tracer) begin(d int, key string, req uint64) *pendingCall {
	pc := &pendingCall{key: key, req: req, span: t.ids.Add(1)}
	t.mu.Lock()
	dc := t.calls(d)
	dc.calls = append(dc.calls, pc)
	t.mu.Unlock()
	return pc
}

// end unregisters a client call.
func (t *tracer) end(d int, pc *pendingCall) {
	t.mu.Lock()
	dc := t.calls(d)
	for i, c := range dc.calls {
		if c == pc {
			dc.calls = append(dc.calls[:i], dc.calls[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// claim matches a backend call on daemon d to its client call, opens a
// backend span, and returns that span's ID, its parent and request.
func (t *tracer) claim(d int, key string) (id, parent, req uint64) {
	id = t.ids.Add(1)
	t.mu.Lock()
	dc := t.calls(d)
	for _, c := range dc.calls {
		if !c.claimed && c.key == key {
			c.claimed = true
			parent, req = c.span, c.req
			break
		}
	}
	dc.backend = append(dc.backend, openSpan{id, req})
	t.mu.Unlock()
	return id, parent, req
}

// release closes a backend span opened by claim.
func (t *tracer) release(d int, s span) {
	t.mu.Lock()
	dc := t.calls(d)
	for i, o := range dc.backend {
		if o.id == s.ID {
			dc.backend = append(dc.backend[:i], dc.backend[i+1:]...)
			break
		}
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// current returns the newest open backend span on daemon d and its
// request, the parent of work a daemon does on a request's behalf.
func (t *tracer) current(d int) (parent, req uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dc := t.calls(d)
	if len(dc.backend) == 0 {
		return 0, 0
	}
	o := dc.backend[len(dc.backend)-1]
	return o.id, o.req
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callKey identifies a call by what both ends of the wire see.
func callKey(op ipc.Op, path string, args []string) string {
	return string(op) + "\x00" + path + "\x00" + strings.Join(args, "\x00")
}

// tracedBackend times the daemon side of each call.  Embedding keeps
// every optional ipc backend interface the daemon implements.
type tracedBackend struct {
	*daemon.Backend
	t      *tracer
	daemon int
}

func (b *tracedBackend) timed(name string, key string, fn func()) {
	if !b.t.on.Load() {
		fn()
		return
	}
	id, parent, req := b.t.claim(b.daemon, key)
	s := span{ID: id, Parent: parent, Req: req, Name: name, Daemon: b.daemon, Start: b.t.now()}
	fn()
	s.End = b.t.now()
	b.t.release(b.daemon, s)
}

// Run implements ipc.Backend.
func (b *tracedBackend) Run(name string, args []string, boot bool) (out ipc.RunOutcome, err error) {
	op := ipc.OpRun
	if boot {
		op = ipc.OpRunBoot
	}
	b.timed("daemon.run", callKey(op, name, args), func() { out, err = b.Backend.Run(name, args, boot) })
	return out, err
}

// DefineAllow implements ipc.RebindBackend, the path OpDefine takes.
func (b *tracedBackend) DefineAllow(path, bp string, allow bool) (err error) {
	b.timed("daemon.define", callKey(ipc.OpDefine, path, nil), func() { err = b.Backend.DefineAllow(path, bp, allow) })
	return err
}

// DefineLibraryAllow implements ipc.RebindBackend.
func (b *tracedBackend) DefineLibraryAllow(path, bp string, allow bool) (err error) {
	b.timed("daemon.define", callKey(ipc.OpDefineLib, path, nil), func() { err = b.Backend.DefineLibraryAllow(path, bp, allow) })
	return err
}

// tracedMesh times the server's calls into the mesh node: owner
// consults and offers of locally built foreign content.
type tracedMesh struct {
	server.MeshHook
	t      *tracer
	daemon int
	offers atomic.Uint64
}

func (m *tracedMesh) timed(name string, fn func()) {
	if !m.t.on.Load() {
		fn()
		return
	}
	parent, req := m.t.current(m.daemon)
	s := span{Parent: parent, Req: req, Name: name, Daemon: m.daemon, Start: m.t.now()}
	fn()
	s.End = m.t.now()
	m.t.record(s)
}

// FetchContent implements server.MeshHook.
func (m *tracedMesh) FetchContent(ckey string, textBase, dataBase uint64, haveBytes bool) (r *server.MeshReply, err error) {
	m.timed("mesh.fetch", func() { r, err = m.MeshHook.FetchContent(ckey, textBase, dataBase, haveBytes) })
	return r, err
}

// OfferContent implements server.MeshHook.
func (m *tracedMesh) OfferContent(ckey string, blob []byte) {
	m.offers.Add(1)
	m.timed("mesh.offer", func() { m.MeshHook.OfferContent(ckey, blob) })
}
