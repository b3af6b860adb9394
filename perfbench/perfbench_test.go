package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"omos/internal/minic"
	"omos/internal/workload"
)

// replay runs the first n requests of a workload with the two clients
// taking turns on one goroutine, and returns the counter metrics that
// must not depend on timing.
func replay(t *testing.T, name string, seed int64, n int) map[string]float64 {
	t.Helper()
	w := workloads[name]
	dir := t.TempDir()
	e := &env{seed: seed, dir: dir}
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
	}
	c, err := w.setup(e, filepath.Join(dir, "setup"))
	if err != nil {
		t.Fatalf("%s: setup: %v", name, err)
	}
	defer c.close()
	before := sumStats(c)
	var outs []outcome
	for i := 0; i < n; i++ {
		cl := c.clients[i%len(c.clients)]
		req := cl.gen.next()
		o := execute(cl, req, nil, 0)
		if o.err != nil {
			t.Fatalf("%s seed %d request %d (%s): %v", name, seed, i, req.kind, o.err)
		}
		if req.done != nil {
			req.done()
		}
		outs = append(outs, o)
	}
	m := layerCounters(before, sumStats(c), outs)
	for k := range m {
		if !deterministicMetric(k) {
			delete(m, k)
		}
	}
	return m
}

func deterministicMetric(name string) bool {
	for _, p := range []string{"sim.", "resolve.", "rebase.patches_per_op", "buildgraph.nodes_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// TestDeterministicCounters replays a short prefix of every workload
// twice per seed: simulated cycles, resolution, rebase patches and
// build-graph node outcomes must repeat exactly.
func TestDeterministicCounters(t *testing.T) {
	const prefix = 20
	for _, name := range []string{"warm-exec", "build-churn", "mesh-miss"} {
		for _, seed := range []int64{1, 2} {
			a := replay(t, name, seed, prefix)
			b := replay(t, name, seed, prefix)
			if len(a) == 0 {
				t.Fatalf("%s: no deterministic metrics", name)
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s seed %d: %s = %v then %v", name, seed, k, v, b[k])
				}
			}
			t.Logf("%s seed %d: %v", name, seed, a)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "omos/internal/minic.(*parser).expr", "omos/internal/server.evalCtx.Compile"}, "minic"},
		{[]string{"encoding/gob.(*Encoder).encode", "omos/internal/ipc.(*session).send"}, "ipc.gob"},
		{[]string{"syscall.write", "omos/internal/ipc.(*session).send", "encoding/gob.x"}, "ipc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "omos/internal/asm.Assemble"}, "runtime.gc"},
		{[]string{"omos.(*System).Run", "main.execute"}, "omos"},
		{[]string{"runtime.futex", "runtime.schedule"}, ""},
	} {
		if got := sampleLayer(tc.stack); got != tc.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestCPUSharesSumTo100 profiles real compiler work and checks that
// the attribution finds it and that the shares partition the samples.
func TestCPUSharesSumTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	src := workload.CodegenUnits(sizeDeck[2])["cg00"]
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := minic.Compile(src, minic.Options{Unit: "cg00"}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples collected")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("shares sum to %v, want 100: %v", sum, shares)
	}
	// The race detector's runtime takes a share of the samples, so the
	// floor is well below the ~80% an uninstrumented build shows.
	if shares["minic"]+shares["asm"] < 25 {
		t.Errorf("compiler work attributed to minic+asm: %v%%, want the bulk of it: %v", shares["minic"]+shares["asm"], shares)
	}
}

// benchSpec reads the metric lists of BENCHMARK.json.
func benchSpec(t *testing.T) (endToEnd, perLayer []struct{ Name, Unit string }) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// checkResult fails unless every output checked and the result reports
// exactly the listed metrics with their units.
func checkResult(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

func TestEndToEndRun(t *testing.T) {
	e2e, _ := benchSpec(t)
	res, err := run("build-churn", 1, time.Second, false, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, e2e)
	for _, m := range e2e {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("%s = %v, want a positive value", m.Name, res.Metrics[m.Name].Value)
		}
	}
}

// TestTracedRun runs a short traced window with both clients
// concurrently: every output must check, every per-layer metric must
// be reported, the CPU shares must partition the samples, and the
// trace must pair client calls with daemon spans.
func TestTracedRun(t *testing.T) {
	_, perLayer := benchSpec(t)
	out := t.TempDir()
	res, err := run("mesh-miss", 3, 2*time.Second, true, 1, out)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer)
	var shares float64
	for name, m := range res.Metrics {
		if strings.HasSuffix(name, "cpu_share") || name == "cpu.unattributed_share" {
			shares += m.Value
		}
	}
	if shares < 99.999 || shares > 100.001 {
		t.Errorf("cpu shares sum to %v, want 100", shares)
	}
	for _, name := range []string{"ipc.transport_ms_p50", "daemon.run_ms_p50", "mesh.fetch_ms_p50"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a measured span", name, res.Metrics[name].Value)
		}
	}
	trace, err := os.ReadFile(filepath.Join(out, "trace-mesh-miss-3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace, []byte(`"name":"omos.boot"`)) || !bytes.Contains(trace, []byte(`"name":"mesh.offer"`)) {
		t.Errorf("trace lacks boot or mesh offer spans")
	}
}
