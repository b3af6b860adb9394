package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"omos/internal/ipc"
	"omos/internal/workload"
)

// The three workloads.  Each is a closed loop of two clients, one
// connection each: exec callers block until their image is mapped and
// run, so a caller's next request waits for the previous one.
//
//   - warm-exec: a daemon warm-restarted from a store an earlier
//     session filled serves cache hits only.  Compile (blueprint
//     re-evaluation), ipc, the server hit path and osim/vm carry the
//     load; link, rebase, store writes and mesh do almost nothing.
//   - build-churn: a fresh daemon whose store is capped below the run's
//     output builds new programs, rebases placement variants and re-runs
//     recent ones.  Link, resolve, rebase, build graph and store writes
//     carry the load; mesh does nothing.
//   - mesh-miss: three meshed daemons; clients on daemons 1 and 2 run
//     placement variants of seed content (metadata rebases from the
//     owner) and content the other client built (blobs from the owner).
//     The only workload that exercises mesh fetch/offer and the store
//     codec's decode of peer records.
var workloads = map[string]workloadDef{
	"warm-exec":   {prepare: prepareWarm, setup: setupWarm},
	"build-churn": {setup: setupChurn},
	"mesh-miss":   {setup: setupMesh},
}

// workloadDef builds a workload's cluster.  prepare runs once per
// process before the timed set-ups; setup boots the daemons, defines
// the namespace and runs the warm-up pass, and is what setup_s times.
type workloadDef struct {
	prepare func(e *env) error
	setup   func(e *env, dir string) (*cluster, error)
}

// env is what a workload's set-up needs from the run.
type env struct {
	seed int64
	dir  string // scratch directory of this run
	t    *tracer
}

// define is one namespace definition sent over the wire.
type define struct {
	path, bp string
	lib      bool
}

// request is one workload request: removals, definitions, then one
// run whose exit code and output must equal want.
type request struct {
	kind    string
	removes []string
	defines []define
	path    string
	args    []string
	want    want
	// done records the request's effect in the generator's state once
	// it succeeded (content another request may now refer to).
	done func()
}

// program returns the request's first definition with its reference.
func (r request) program() program {
	return program{Blueprint: r.defines[0].bp, Want: r.want}
}

// generator yields one client's request sequence.
type generator interface {
	next() request
}

// client is one closed-loop caller with its own connection.
type client struct {
	daemon int
	conn   *ipc.Client
	gen    generator
}

// cluster is a workload's running daemons and clients.
type cluster struct {
	nodes   []*node
	clients []*client
	setup   []*ipc.Client // connections used only during set-up
}

func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.conn.Close()
	}
	for _, s := range c.setup {
		s.Close()
	}
	for _, n := range c.nodes {
		n.stop()
	}
}

func (c *cluster) dial(d int) (*ipc.Client, error) {
	conn, err := ipc.DialWith(c.nodes[d].addr, ipc.DefaultOptions)
	if err != nil {
		return nil, fmt.Errorf("dialing daemon %d: %w", d, err)
	}
	return conn, nil
}

// addClients dials one workload client per entry of daemons.
func (c *cluster) addClients(daemons []int, gen func(id int) generator) error {
	for id, d := range daemons {
		conn, err := c.dial(d)
		if err != nil {
			return err
		}
		c.clients = append(c.clients, &client{daemon: d, conn: conn, gen: gen(id)})
	}
	return nil
}

// deck is a seeded shuffle of a fixed multiset, reshuffled on every
// pass: any window of whole passes holds the exact proportions, so
// seeds change the order and the content, not the mix.
type deck[T any] struct {
	rng   *rand.Rand
	cards []T
	pos   int
}

func newDeck[T any](rng *rand.Rand, cards []T) *deck[T] {
	return &deck[T]{rng: rng, cards: append([]T(nil), cards...), pos: len(cards)}
}

func (d *deck[T]) draw() T {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// repeat returns n copies of v.
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func clientRNG(seed int64, salt, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(salt)*7_919 + int64(id)))
}

// ---- warm-exec ----

// warmSmall is the number of generated libc programs, and warmWeights
// their popularity (per 100 requests; the rest go to ls and codegen).
const warmSmall = 12

var warmWeights = [warmSmall]int{12, 9, 7, 6, 5, 4, 3, 3, 2, 2, 1, 1}

// warmRun is one program invocation of the warm-exec mix.
type warmRun struct {
	path string
	args []string
	want want
	bp   string // non-empty for generated programs
}

// warmMix returns the warm-exec programs with their share of 100
// requests: /bin/codegen 10, ls -laF 15, plain ls 20, and the seeded
// small programs the remaining 55 in a seeded popularity order.
func warmMix(seed int64) ([]warmRun, []int, error) {
	lsOne, err := lsWant("/data/one", false)
	if err != nil {
		return nil, nil, err
	}
	lsMany, err := lsWant("/data/many", true)
	if err != nil {
		return nil, nil, err
	}
	runs := []warmRun{
		{path: "/bin/codegen", want: want{Exit: 0, Out: ""}},
		{path: "/bin/ls", args: []string{"-laF", "/data/many"}, want: lsMany},
		{path: "/bin/ls", args: []string{"/data/one"}, want: lsOne},
	}
	weights := []int{10, 15, 20}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(warmSmall)
	for i := 0; i < warmSmall; i++ {
		p := smallProgram(rng, fmt.Sprintf("w%d-%d", i, seed))
		runs = append(runs, warmRun{path: fmt.Sprintf("/bin/w%02d", i), want: p.Want, bp: p.Blueprint})
		weights = append(weights, warmWeights[order[i]])
	}
	return runs, weights, nil
}

type warmGen struct{ d *deck[warmRun] }

func (g *warmGen) next() request {
	r := g.d.draw()
	return request{kind: "hit", path: r.path, args: r.args, want: r.want}
}

func warmStore(e *env) string { return filepath.Join(e.dir, "warm-store") }

// prepareWarm is the earlier session: a daemon on a fresh store builds
// every program of the mix once, then shuts down, leaving the store
// full.
func prepareWarm(e *env) error {
	runs, _, err := warmMix(e.seed)
	if err != nil {
		return err
	}
	c, err := bootSingle(daemonOpts{storeDir: warmStore(e)}, nil)
	if err != nil {
		return err
	}
	defer c.close()
	return warmUp(c, runs)
}

// setupWarm warm-restarts a daemon on the prepared store, defines the
// generated programs and runs every program once.
func setupWarm(e *env, _ string) (*cluster, error) {
	runs, weights, err := warmMix(e.seed)
	if err != nil {
		return nil, err
	}
	c, err := bootSingle(daemonOpts{storeDir: warmStore(e)}, e.t)
	if err != nil {
		return nil, err
	}
	if err := warmUp(c, runs); err != nil {
		c.close()
		return nil, err
	}
	var cards []warmRun
	for i, r := range runs {
		cards = append(cards, repeat(r, weights[i])...)
	}
	err = c.addClients([]int{0, 0}, func(id int) generator {
		return &warmGen{d: newDeck(clientRNG(e.seed, 1, id), cards)}
	})
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// bootSingle boots one daemon with a set-up connection.
func bootSingle(o daemonOpts, t *tracer) (*cluster, error) {
	l, err := listenLoopback(0)
	if err != nil {
		return nil, err
	}
	n, err := bootDaemon(0, l, o, t)
	if err != nil {
		return nil, err
	}
	c := &cluster{nodes: []*node{n}}
	conn, err := c.dial(0)
	if err != nil {
		c.close()
		return nil, err
	}
	c.setup = append(c.setup, conn)
	return c, nil
}

// warmUp defines the generated programs and runs every program once
// through the set-up connection.
func warmUp(c *cluster, runs []warmRun) error {
	conn := &client{daemon: 0, conn: c.setup[0]}
	for _, r := range runs {
		req := request{kind: "warm-up", path: r.path, args: r.args, want: r.want}
		if r.bp != "" {
			req.defines = []define{{path: r.path, bp: r.bp}}
		}
		if res := execute(conn, req, nil, 0); res.err != nil {
			return res.err
		}
	}
	return nil
}

// ---- build-churn ----

// churnStoreMax caps the store well below what a run writes (each new
// program checkpoints tens of KiB), so eviction runs throughout.
const churnStoreMax = 1 << 20

// liveLimit is how many of its paths a client keeps defined: a request
// that defines one more first removes the oldest.  Together with the
// store cap, which evicts cached images, it keeps the namespace and
// the image cache from growing with the number of requests a run
// completes.
const liveLimit = 16

// named is a program defined at a namespace path.
type named struct {
	path string
	program
}

// progGen is the state build-churn and mesh-miss clients share: the
// seeded kind and size decks, path numbering, and the client's live
// paths.
type progGen struct {
	seed   int64
	id     int
	prefix string
	rng    *rand.Rand
	kinds  *deck[string]
	sizes  *deck[workload.CodegenParams]
	seq    int
	live   []string // defined paths, oldest first
	recent []named  // recently defined programs, oldest first
}

func newProgGen(seed int64, id int, prefix string, salt int, kinds []string) progGen {
	rng := clientRNG(seed, salt, id)
	return progGen{seed: seed, id: id, prefix: prefix, rng: rng,
		kinds: newDeck(rng, kinds), sizes: newDeck(rng, sizeDeck)}
}

// define builds a request that defines bp at a fresh path and runs it,
// retiring the client's oldest path if it is at its limit.  Once the
// request succeeds the program becomes a re-run and variant candidate.
func (g *progGen) define(kind string, p program) request {
	g.seq++
	n := named{path: fmt.Sprintf("/bin/%s%d-%s%d", g.prefix, g.id, kind[:1], g.seq), program: p}
	req := request{kind: kind, defines: []define{{path: n.path, bp: p.Blueprint}}, path: n.path, want: p.Want}
	if len(g.live) >= liveLimit {
		req.removes = []string{g.live[0]}
	}
	req.done = func() {
		g.live = append(g.live[len(req.removes):], n.path)
		g.recent = append(g.recent, n)
		if len(g.recent) > recentLimit {
			g.recent = g.recent[1:]
		}
	}
	return req
}

// recentLimit bounds the programs re-runs and variants draw from.
const recentLimit = 8

// newProgram generates new content: a codegen-shaped program of the
// next deck size whose tag makes it unique.
func (g *progGen) newProgram() request {
	tag := fmt.Sprintf("s%d%s%dn%d", g.seed, g.prefix, g.id, g.seq+1)
	return g.define("new", codegenProgram(g.sizes.draw(), g.rng.Intn(1_000_000), tag))
}

func (g *progGen) pick() named { return g.recent[g.rng.Intn(len(g.recent))] }

// churnGen mixes, per 10 requests: 4 new programs (compile, symbol
// search, link, checkpoint), 3 placement variants of a recent program
// (rebase), and 3 re-runs of a recent program (cache hits).
type churnGen struct{ progGen }

func (g *churnGen) next() request {
	switch g.kinds.draw() {
	case "variant":
		return g.define("variant", g.pick().program)
	case "rerun":
		n := g.pick()
		return request{kind: "rerun", path: n.path, want: n.Want}
	default:
		return g.newProgram()
	}
}

// setupChurn boots a fresh daemon on an empty capped store; the
// warm-up pass has each client build two programs, so libc is linked
// and variants and re-runs have sources from the first request on.
func setupChurn(e *env, dir string) (*cluster, error) {
	c, err := bootSingle(daemonOpts{storeDir: filepath.Join(dir, "store"), storeMax: churnStoreMax}, e.t)
	if err != nil {
		return nil, err
	}
	kinds := append(append(repeat("new", 4), repeat("variant", 3)...), repeat("rerun", 3)...)
	err = c.addClients([]int{0, 0}, func(id int) generator {
		return &churnGen{newProgGen(e.seed, id, "c", 2, kinds)}
	})
	if err == nil {
		err = warmUpNew(c, 2)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// warmUpNew runs n new-program requests of each client.
func warmUpNew(c *cluster, n int) error {
	for _, cl := range c.clients {
		for i := 0; i < n; i++ {
			req := cl.gen.(interface{ newProgram() request }).newProgram()
			req.kind = "warm-up"
			if res := execute(cl, req, nil, 0); res.err != nil {
				return res.err
			}
			req.done()
		}
	}
	return nil
}

// ---- mesh-miss ----

const (
	meshDaemons = 3
	meshSeeds   = 6
	// meshStoreMax caps each daemon's store, and with it the images it
	// keeps in memory, for the same steady state as liveLimit.
	meshStoreMax = 4 << 20
)

// meshBoard is where each mesh client publishes the new content it
// built, for the other client to run.
type meshBoard struct {
	mu    sync.Mutex
	items [2][]program
}

func (b *meshBoard) publish(id int, p program) {
	b.mu.Lock()
	b.items[id] = append(b.items[id], p)
	b.mu.Unlock()
}

// take removes and returns the oldest item client id published.
func (b *meshBoard) take(id int) (program, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items[id]) == 0 {
		return program{}, false
	}
	p := b.items[id][0]
	b.items[id] = b.items[id][1:]
	return p, true
}

// meshGen mixes, per 10 requests: 5 placement variants of seed content
// (the owner sends metadata, the local variant is rebased), 2 new
// programs (built locally and offered to the owner), and 3 runs of
// content the other client built (streamed as a blob from the owner).
// With nothing of the other client's left to run, that slot runs a
// variant instead.
type meshGen struct {
	progGen
	seeds []named
	board *meshBoard
}

func (g *meshGen) newProgram() request {
	req := g.progGen.newProgram()
	p, done := req.program(), req.done
	req.done = func() {
		done()
		g.board.publish(g.id, p)
	}
	return req
}

func (g *meshGen) next() request {
	switch g.kinds.draw() {
	case "new":
		return g.newProgram()
	case "other":
		if p, ok := g.board.take(1 - g.id); ok {
			return g.define("other", p)
		}
	}
	return g.define("variant", g.seeds[g.rng.Intn(len(g.seeds))].program)
}

// setupMesh boots three meshed daemons on fixed loopback ports, defines
// the seed programs everywhere, has daemon 0 build them, and runs each
// once from daemons 1 and 2, so each holds a local variant of every
// seed (fetched as a blob, or built where it owns the content).
func setupMesh(e *env, dir string) (*cluster, error) {
	ls, err := listenFixed(e.seed, meshDaemons)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	for i, l := range ls {
		o := daemonOpts{storeDir: filepath.Join(dir, fmt.Sprintf("store%d", i)), storeMax: meshStoreMax, meshed: true}
		n, err := bootDaemon(i, l, o, e.t)
		if err != nil {
			for _, rest := range ls[i+1:] {
				rest.Close()
			}
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	if err := joinMesh(c.nodes); err != nil {
		return fail(err)
	}
	rng := rand.New(rand.NewSource(e.seed))
	var seeds []named
	for j := 0; j < meshSeeds; j++ {
		p := codegenProgram(sizeDeck[j%len(sizeDeck)], rng.Intn(1_000_000), fmt.Sprintf("s%dseed%d", e.seed, j))
		seeds = append(seeds, named{path: fmt.Sprintf("/bin/seed%d", j), program: p})
	}
	for d := range c.nodes {
		conn, err := c.dial(d)
		if err != nil {
			return fail(err)
		}
		c.setup = append(c.setup, conn)
	}
	// Daemon 0 builds first, so every seed is linked once and offered
	// to its owner before the others ask.
	for d := range c.nodes {
		for _, s := range seeds {
			req := request{kind: "warm-up", defines: []define{{path: s.path, bp: s.Blueprint}}, path: s.path, want: s.Want}
			if res := execute(&client{daemon: d, conn: c.setup[d]}, req, nil, 0); res.err != nil {
				return fail(res.err)
			}
		}
	}
	board := &meshBoard{}
	kinds := append(append(repeat("variant", 5), repeat("new", 2)...), repeat("other", 3)...)
	err = c.addClients([]int{1, 2}, func(id int) generator {
		return &meshGen{progGen: newProgGen(e.seed, id, "m", 3, kinds), seeds: seeds, board: board}
	})
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// scratchDir makes the run's scratch directory under root.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
