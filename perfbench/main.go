// Command perfbench is the OMOS end-to-end benchmark.  It boots
// daemons in process the way omosd does (omos.NewSystemWith with
// omosd's default options, daemon.New, ipc.NewServer on loopback TCP),
// drives them with two closed-loop ipc clients, checks every program
// output against a reference computed in Go, and prints one JSON
// result line.
//
//	perfbench --workload warm-exec|build-churn|mesh-miss --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of one timed
// window.  With --trace 1 it runs the window in two halves, untraced
// then traced, and reports per-layer metrics from the traced half:
// spans around the calls it makes into each layer, server and
// build-graph counter deltas, the per-run simulated cycle split and a
// CPU profile attributed by package.  Spans are written to
// --out/trace-<workload>-<seed>.jsonl.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/ipc"
)

func main() {
	name := flag.String("workload", "", "workload: warm-exec, build-churn or mesh-miss")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch stores and traces")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, setupsPerRun, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one completed workload request.
type outcome struct {
	kind    string
	latency time.Duration
	user    uint64
	sys     uint64
	server  uint64
	wait    uint64
	err     error
}

const (
	// setupsPerRun is how many times a run sets its workload up;
	// setup_s is their median and the last one is measured.
	setupsPerRun = 5

	// heapProbeRequests is how many requests each client completes
	// before live_heap_mb is read, so the reading does not scale with
	// the run's throughput.
	heapProbeRequests = 150
)

var reqIDs atomic.Uint64

// execute sends a request's definitions and its run, and checks the
// run's exit code and output against the reference.  With a tracer
// that is on, the request and each ipc call get a span.
func execute(cl *client, req request, t *tracer, id uint64) outcome {
	traced := t != nil && t.on.Load()
	var root span
	if traced {
		root = span{ID: t.ids.Add(1), Req: id, Name: "bench.request", Daemon: cl.daemon, Start: t.now()}
	}
	call := func(r *ipc.Request) (*ipc.Response, error) {
		if !traced {
			return cl.conn.Call(r)
		}
		pc := t.begin(cl.daemon, callKey(r.Op, r.Path, r.Args), id)
		s := span{ID: pc.span, Parent: root.ID, Req: id, Name: "ipc.call", Daemon: cl.daemon, Start: t.now()}
		resp, err := cl.conn.Call(r)
		s.End = t.now()
		t.end(cl.daemon, pc)
		t.record(s)
		return resp, err
	}
	o := outcome{kind: req.kind}
	start := time.Now()
	o.err = func() error {
		for _, path := range req.removes {
			if _, err := call(&ipc.Request{Op: ipc.OpRemove, Path: path}); err != nil {
				return fmt.Errorf("remove %s: %w", path, err)
			}
		}
		for _, d := range req.defines {
			op := ipc.OpDefine
			if d.lib {
				op = ipc.OpDefineLib
			}
			if _, err := call(&ipc.Request{Op: op, Path: d.path, Text: d.bp}); err != nil {
				return fmt.Errorf("define %s: %w", d.path, err)
			}
		}
		resp, err := call(&ipc.Request{Op: ipc.OpRun, Path: req.path, Args: req.args})
		if err != nil {
			return fmt.Errorf("run %s: %w", req.path, err)
		}
		o.user, o.sys, o.server, o.wait = resp.User, resp.Sys, resp.Server, resp.Wait
		if resp.ExitCode != req.want.Exit || resp.Output != req.want.Out {
			return fmt.Errorf("run %s %v: exit %d output %q, want exit %d output %q",
				req.path, req.args, resp.ExitCode, resp.Output, req.want.Exit, req.want.Out)
		}
		return nil
	}()
	o.latency = time.Since(start)
	if traced {
		root.End = t.now()
		t.record(root)
	}
	return o
}

// window runs every client in a closed loop until d has passed and
// each client has completed at least minReqs requests, and returns the
// outcomes and the window's length.  Requests started before the
// deadline finish.  after, if set, runs after each request on the
// client's goroutine with the count the client has completed.
func window(c *cluster, d time.Duration, minReqs int, t *tracer, after func(cl *client, n int)) ([]outcome, time.Duration) {
	var wg sync.WaitGroup
	per := make([][]outcome, len(c.clients))
	start := time.Now()
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for time.Since(start) < d || len(per[i]) < minReqs {
				req := cl.gen.next()
				o := execute(cl, req, t, reqIDs.Add(1))
				if o.err == nil && req.done != nil {
					req.done()
				}
				per[i] = append(per[i], o)
				if after != nil {
					after(cl, len(per[i]))
				}
			}
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

func run(name string, seed int64, d time.Duration, trace bool, setups int, out string) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want warm-exec, build-churn or mesh-miss)", name)
	}
	if d <= 0 || setups < 1 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dir, err := scratchDir(filepath.Join(out, "work"))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, dir: dir}
	if trace {
		e.t = newTracer()
		e.t.on.Store(true)
	}
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: preparing: %w", name, err)
		}
	}
	var c *cluster
	var setupTimes, bootTimes []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
		}
		// Collect the previous set-up's garbage outside the timing.
		runtime.GC()
		start := time.Now()
		c, err = w.setup(e, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		var boot time.Duration
		for _, n := range c.nodes {
			boot = max(boot, n.boot)
		}
		bootTimes = append(bootTimes, boot.Seconds())
	}
	defer c.close()
	fmt.Fprintf(os.Stderr, "perfbench: set-ups took %.3f s\n", setupTimes)
	if !trace {
		return endToEnd(c, d, median(setupTimes)), nil
	}
	return perLayer(c, d, e.t, median(bootTimes), filepath.Join(out, fmt.Sprintf("trace-%s-%d.jsonl", name, seed)))
}

// endToEnd measures one untraced window.  The live heap is read once,
// after a forced GC, when every client has completed heapProbeRequests
// requests: the clients wait for each other there, so no request is in
// flight and the same requests have run on every run of a seed.
func endToEnd(c *cluster, d time.Duration, setup float64) *result {
	var probe sync.WaitGroup
	probe.Add(len(c.clients))
	var arrived atomic.Int32
	var heapMB float64
	atProbe := func(_ *client, n int) {
		if n != heapProbeRequests {
			return
		}
		if int(arrived.Add(1)) == len(c.clients) {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapMB = float64(ms.HeapAlloc) / (1 << 20)
		}
		probe.Done()
		probe.Wait()
	}
	allocs0 := heapAllocs()
	outs, elapsed := window(c, d, heapProbeRequests, nil, atProbe)
	allocs := heapAllocs() - allocs0
	res := tally(outs)
	n := float64(len(outs))
	lat := latencies(outs)
	fmt.Fprintf(os.Stderr, "perfbench: %d requests in %.1fs\n", len(outs), elapsed.Seconds())
	var cycles float64
	for _, o := range outs {
		cycles += float64(o.user + o.sys + o.server + o.wait)
	}
	res.Metrics = map[string]metric{
		"setup_s":           {setup, "s"},
		"ops_per_s":         {float64(res.Attempted-res.Failed) / elapsed.Seconds(), "1/s"},
		"latency_p50_ms":    {quantile(lat, 0.50), "ms"},
		"latency_p95_ms":    {quantile(lat, 0.95), "ms"},
		"ok_ratio":          {float64(res.Attempted-res.Failed) / n, "ratio"},
		"sim_cycles_per_op": {cycles / n, "cycles"},
		"alloc_kb_per_op":   {float64(allocs) / 1024 / n, "KiB"},
		"live_heap_mb":      {heapMB, "MiB"},
	}
	return res
}

// tally counts attempts and failures and reports the first failure.
func tally(outs []outcome) *result {
	res := &result{Attempted: len(outs)}
	for _, o := range outs {
		if o.err != nil {
			if res.Failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", o.kind, o.err)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// latencies returns the outcomes' latencies in milliseconds, sorted.
func latencies(outs []outcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = float64(o.latency) / float64(time.Millisecond)
	}
	sort.Float64s(v)
	return v
}

// quantile interpolates the q-quantile of sorted values (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func meanLatency(outs []outcome) float64 {
	var sum time.Duration
	for _, o := range outs {
		sum += o.latency
	}
	return sum.Seconds() / float64(max(1, len(outs)))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// graphPoller collects the build-graph node events of one daemon
// (polled after each request, since the server keeps a bounded ring).
type graphPoller struct {
	mu      sync.Mutex
	last    uint64
	built   []float64 // node durations, ms
	rebased []float64
}

func (g *graphPoller) poll(n *node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ev := range n.sys.Srv.GraphLog().Events(0) {
		if ev.Seq <= g.last {
			continue
		}
		g.last = ev.Seq
		if ev.Type != "done" {
			continue
		}
		ms := float64(ev.Dur) / float64(time.Millisecond)
		switch ev.Outcome {
		case "built":
			g.built = append(g.built, ms)
		case "rebased":
			g.rebased = append(g.rebased, ms)
		}
	}
}

func sumStats(c *cluster) stats {
	var t stats
	for _, n := range c.nodes {
		s := n.stats()
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.RelocsApplied += s.RelocsApplied
		t.BuiltBytes += s.BuiltBytes
		t.Rebases += s.Rebases
		t.RebaseMiss += s.RebaseMiss
		t.RebasePatches += s.RebasePatches
		t.RebaseDirtyPages += s.RebaseDirtyPages
		t.StoreEvictions += s.StoreEvictions
		t.StoreBytes += s.StoreBytes
		t.WarmLoaded += s.WarmLoaded
		t.Shed += s.Shed
		t.NodesBuilt += s.NodesBuilt
		t.NodesCached += s.NodesCached
		t.NodesRebased += s.NodesRebased
		t.CheckpointBytes += s.CheckpointBytes
		t.SymbolSearches += s.SymbolSearches
		t.BindingHits += s.BindingHits
		t.BindingMisses += s.BindingMisses
		t.BindingInvalidations += s.BindingInvalidations
		t.MeshFetches += s.MeshFetches
		t.MeshMetaRebases += s.MeshMetaRebases
		t.MeshBlobInstalls += s.MeshBlobInstalls
		t.MeshFallbacks += s.MeshFallbacks
		t.Offers += s.Offers
	}
	return t
}

// layerCounters are the per-layer metrics that come from counters and
// the per-run cycle split rather than from spans or the profile; the
// determinism test compares them exactly.
func layerCounters(before, after stats, outs []outcome) map[string]float64 {
	n := float64(len(outs))
	d := func(a, b uint64) float64 { return float64(b - a) }
	var user, sys, srv, wait float64
	for _, o := range outs {
		user += float64(o.user)
		sys += float64(o.sys)
		srv += float64(o.server)
		wait += float64(o.wait)
	}
	hits, misses := d(before.CacheHits, after.CacheHits), d(before.CacheMisses, after.CacheMisses)
	bindHits := d(before.BindingHits, after.BindingHits)
	bindAll := bindHits + d(before.BindingMisses, after.BindingMisses) + d(before.BindingInvalidations, after.BindingInvalidations)
	rebases := d(before.Rebases, after.Rebases)
	meta, blob := d(before.MeshMetaRebases, after.MeshMetaRebases), d(before.MeshBlobInstalls, after.MeshBlobInstalls)
	fetches := d(before.MeshFetches, after.MeshFetches)
	return map[string]float64{
		"server.cache_hit_ratio":          ratio(hits, hits+misses),
		"admission.shed_ratio":            ratio(d(before.Shed, after.Shed), n),
		"buildgraph.nodes_built_per_op":   ratio(d(before.NodesBuilt, after.NodesBuilt), n),
		"buildgraph.nodes_rebased_per_op": ratio(d(before.NodesRebased, after.NodesRebased), n),
		"buildgraph.nodes_cached_per_op":  ratio(d(before.NodesCached, after.NodesCached), n),
		"resolve.symbol_searches_per_op":  ratio(d(before.SymbolSearches, after.SymbolSearches), n),
		"resolve.binding_replay_ratio":    ratio(bindHits, bindAll),
		"link.relocs_per_op":              ratio(d(before.RelocsApplied, after.RelocsApplied), n),
		"link.built_kb_per_op":            ratio(d(before.BuiltBytes, after.BuiltBytes)/1024, n),
		"rebase.hit_ratio":                ratio(rebases, rebases+d(before.RebaseMiss, after.RebaseMiss)),
		"rebase.patches_per_op":           ratio(d(before.RebasePatches, after.RebasePatches), n),
		"rebase.dirty_pages_per_op":       ratio(d(before.RebaseDirtyPages, after.RebaseDirtyPages), n),
		"store.write_kb_per_op":           ratio(d(before.CheckpointBytes, after.CheckpointBytes)/1024, n),
		"store.evictions":                 d(before.StoreEvictions, after.StoreEvictions),
		"mesh.fetches_per_op":             ratio(fetches, n),
		"mesh.meta_share":                 ratio(meta, meta+blob),
		"mesh.fallback_ratio":             ratio(d(before.MeshFallbacks, after.MeshFallbacks), fetches),
		"mesh.offers_per_op":              ratio(d(before.Offers, after.Offers), n),
		"sim.user_cycles_per_op":          ratio(user, n),
		"sim.sys_cycles_per_op":           ratio(sys, n),
		"sim.server_cycles_per_op":        ratio(srv, n),
		"sim.wait_cycles_per_op":          ratio(wait, n),
	}
}

// perLayer runs the window in two halves, untraced then traced, and
// reports the per-layer metrics of the traced half.
func perLayer(c *cluster, d time.Duration, t *tracer, boot float64, tracePath string) (*result, error) {
	t.on.Store(false)
	plain, _ := window(c, d/2, 0, nil, nil)

	pollers := make([]*graphPoller, len(c.nodes))
	for i, n := range c.nodes {
		pollers[i] = &graphPoller{}
		pollers[i].poll(n)
		pollers[i].built, pollers[i].rebased = nil, nil // set-up nodes
	}
	before := sumStats(c)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t.on.Store(true)
	windowStart := t.now()
	outs, _ := window(c, d-d/2, 0, t, func(cl *client, _ int) { pollers[cl.daemon].poll(c.nodes[cl.daemon]) })
	t.on.Store(false)
	pprof.StopCPUProfile()
	after := sumStats(c)

	res := tally(append(append([]outcome(nil), plain...), outs...))
	m := map[string]metric{}
	for k, v := range layerCounters(before, after, outs) {
		m[k] = metric{v, layerUnit(k)}
	}

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d CPU samples in the traced window\n", samples)
	for l, v := range shares {
		switch l {
		case "runtime.gc":
			m["runtime.gc_cpu_share"] = metric{v, "%"}
		case "unattributed":
			m["cpu.unattributed_share"] = metric{v, "%"}
		case "ipc.gob":
			m["ipc.gob_cpu_share"] = metric{v, "%"}
		default:
			m[l+".cpu_share"] = metric{v, "%"}
		}
	}

	var calls, transport, runs, defines, fetch []float64
	spans := t.snapshot()
	byParent := map[uint64]span{}
	for _, s := range spans {
		if s.Name == "daemon.run" || s.Name == "daemon.define" {
			byParent[s.Parent] = s
		}
	}
	ms := func(x time.Duration) float64 { return float64(x) / float64(time.Millisecond) }
	for _, s := range spans {
		inWindow := s.Start >= windowStart
		switch s.Name {
		case "ipc.call":
			if !inWindow {
				continue
			}
			calls = append(calls, ms(s.dur()))
			if b, ok := byParent[s.ID]; ok {
				transport = append(transport, ms(s.dur()-b.dur()))
			}
		case "daemon.run":
			if inWindow {
				runs = append(runs, ms(s.dur()))
			}
		case "daemon.define":
			// Set-up defines count too: warm-exec defines nothing
			// once the window opens.
			defines = append(defines, ms(s.dur()))
		case "mesh.fetch":
			if inWindow {
				fetch = append(fetch, ms(s.dur()))
			}
		}
	}
	var built, rebased []float64
	for _, p := range pollers {
		built = append(built, p.built...)
		rebased = append(rebased, p.rebased...)
	}
	for _, v := range [][]float64{calls, transport, runs, defines, fetch, built, rebased} {
		sort.Float64s(v)
	}
	m["ipc.call_ms_p50"] = metric{quantile(calls, 0.5), "ms"}
	m["ipc.transport_ms_p50"] = metric{quantile(transport, 0.5), "ms"}
	m["daemon.run_ms_p50"] = metric{quantile(runs, 0.5), "ms"}
	m["daemon.run_ms_p95"] = metric{quantile(runs, 0.95), "ms"}
	m["daemon.define_ms_p50"] = metric{quantile(defines, 0.5), "ms"}
	m["mesh.fetch_ms_p50"] = metric{quantile(fetch, 0.5), "ms"}
	m["buildgraph.built_node_ms_p50"] = metric{quantile(built, 0.5), "ms"}
	m["buildgraph.rebased_node_ms_p50"] = metric{quantile(rebased, 0.5), "ms"}

	end := sumStats(c)
	var warm uint64
	for _, n := range c.nodes {
		warm += uint64(n.sys.WarmLoaded)
	}
	m["store.warm_load_s"] = metric{boot, "s"}
	m["store.warm_loaded"] = metric{float64(warm), "count"}
	m["store.bytes_end_mb"] = metric{float64(end.StoreBytes) / (1 << 20), "MiB"}

	// Tracing overhead: mean request latency of the traced half over
	// the untraced half.  Both halves run the same request mix.
	m["trace.overhead_pct"] = metric{100 * (meanLatency(outs)/meanLatency(plain) - 1), "%"}
	res.Metrics = m
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := t.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// layerUnit is the unit of a counter-derived per-layer metric.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "_kb_per_op"):
		return "KiB"
	case strings.HasSuffix(name, "_cycles_per_op"):
		return "cycles"
	}
	return "count"
}
