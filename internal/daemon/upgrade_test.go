package daemon

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omos"
	"omos/internal/ipc"
	"omos/internal/workload"
)

// upgradeLibBlueprint renders the i-th auxiliary library's blueprint
// with the source appended to — the same constraint addresses
// InstallWorkloads uses, so a flip is purely a content change.
func upgradeLibBlueprint(i int, source string) string {
	return fmt.Sprintf("(constraint-list \"T\" %#x \"D\" %#x)\n(merge (source \"c\" %q))",
		0x0200_0000+uint64(i)*0x40_0000, 0x4200_0000+uint64(i)*0x40_0000, source)
}

// dialUpgrade dials one client tuned for the load test.
func dialUpgrade(t *testing.T, addr string) *ipc.Client {
	t.Helper()
	c, err := ipc.DialWith(addr, ipc.Options{
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    30 * time.Second,
		Retries:        3,
		Backoff:        5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestUpgradeUnderLoad is the acceptance scenario: eight concurrent
// clients keep running programs while the 6-library workload is
// flipped live, one library at a time, each flip a full canary epoch
// committed under traffic — and the client error rate stays under 1%.
// Then a genuinely broken canary is staged: the health gate must trip,
// roll the epoch back automatically (health reports the rollback in
// progress, then the verdict), and leave zero instantiations bound to
// the regressed version — the binding provenance afterwards is
// identical to before the bad epoch.
func TestUpgradeUnderLoad(t *testing.T) {
	sys, err := omos.NewSystemWith(omos.Options{
		// Arm a one-shot rollback fault so the automatic rollback's
		// first attempt stalls: the e2e observes the rolling-back state
		// through health before ordinary traffic nudges it through.
		FaultSpec: "upgrade.rollback:error:n=1:count=1",
	})
	if err != nil {
		t.Fatal(err)
	}
	cg := workload.CodegenParams{Units: 4, FuncsPerUnit: 4, HotIters: 3}
	if err := InstallWorkloads(sys, cg); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.NewServer(New(sys))
	srv.SetFaults(sys.Faults)
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)
	addr := l.Addr().String()
	ctl := dialUpgrade(t, addr)

	wantExit := func(c *ipc.Client, path string) uint64 {
		t.Helper()
		resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: path})
		if err != nil {
			t.Fatalf("run %s: %v", path, err)
		}
		return resp.ExitCode
	}
	lsExit := wantExit(ctl, "/bin/ls")
	cgExit := wantExit(ctl, "/bin/codegen")

	// Eight concurrent clients hammer the daemon for the whole flip
	// sequence.
	var total, failed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		c := dialUpgrade(t, addr)
		wg.Add(1)
		go func(c *ipc.Client, i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				path := "/bin/ls"
				if i%2 == 0 {
					path = "/bin/codegen"
				}
				resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: path})
				total.Add(1)
				if err != nil || (path == "/bin/ls" && resp.ExitCode != lsExit) ||
					(path == "/bin/codegen" && resp.ExitCode != cgExit) {
					failed.Add(1)
				}
			}
		}(c, i)
	}

	// Flip the six libraries one at a time: full canary epoch, commit
	// under load.  Each v2 is the original source plus a new function —
	// behaviour-identical, content-distinct.
	flip := func(path, blueprint string) {
		t.Helper()
		if _, err := ctl.Call(&ipc.Request{Op: ipc.OpUpgrade, Unit: "start", Text: "100"}); err != nil {
			t.Fatalf("start epoch for %s: %v", path, err)
		}
		if _, err := ctl.Call(&ipc.Request{Op: ipc.OpUpgrade, Unit: "stage",
			Path: path, Text: blueprint, Args: []string{"lib"}}); err != nil {
			t.Fatalf("stage %s: %v", path, err)
		}
		// Let the cohort build v2 under load before committing.
		wantExit(ctl, "/bin/codegen")
		if _, err := ctl.Call(&ipc.Request{Op: ipc.OpUpgrade, Unit: "commit"}); err != nil {
			t.Fatalf("commit %s: %v", path, err)
		}
	}
	libcV2 := strings.TrimSuffix(workload.LibcBlueprint(), ")\n") +
		"  (source \"c\" \"int up_marker_libc(int x) { return x; }\")\n)\n"
	flip("/lib/libc", libcV2)
	for i, lib := range workload.ExtraLibs() {
		flip("/lib/"+lib.Name, upgradeLibBlueprint(i,
			lib.Source+fmt.Sprintf("\nint up_marker_%s(int x) { return x; }\n", lib.Name)))
	}
	close(stop)
	wg.Wait()

	tot, fail := total.Load(), failed.Load()
	if tot == 0 {
		t.Fatal("load clients issued no requests")
	}
	if float64(fail) > 0.01*float64(tot) {
		t.Fatalf("error rate %d/%d exceeds 1%% during live flips", fail, tot)
	}
	if wantExit(ctl, "/bin/ls") != lsExit || wantExit(ctl, "/bin/codegen") != cgExit {
		t.Fatal("behaviour changed across behaviour-identical flips")
	}
	stat := func(name string) uint64 {
		resp, err := ctl.Call(&ipc.Request{Op: ipc.OpHealth})
		if err != nil {
			t.Fatal(err)
		}
		return counter(t, resp.Health, name)
	}
	if n := stat("upgrades-committed"); n != 6 {
		t.Fatalf("upgrades-committed = %d after the flips, want 6", n)
	}

	// Binding provenance baseline for a symbol the next (broken) epoch
	// will target.
	explainKeys := func() []string {
		resp, err := ctl.Call(&ipc.Request{Op: ipc.OpExplain, Path: "a1_f0"})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, line := range strings.Split(resp.Text, "\n") {
			if strings.Contains(line, "definer key") {
				keys = append(keys, strings.TrimSpace(line))
			}
		}
		sort.Strings(keys)
		return keys
	}
	before := explainKeys()
	if len(before) == 0 {
		t.Fatal("no binding provenance for a1_f0 before the regression drill")
	}

	// The regression drill: a canary that cannot link.  The cohort
	// build fails, the gate trips, and the armed fault stalls the first
	// rollback attempt so health exposes the rolling-back state.
	if _, err := ctl.Call(&ipc.Request{Op: ipc.OpUpgrade, Unit: "start", Text: "100"}); err != nil {
		t.Fatal(err)
	}
	broken := upgradeLibBlueprint(0, "extern int missing_up(int);\nint a1_f0(int x) { return missing_up(x); }\n")
	if _, err := ctl.Call(&ipc.Request{Op: ipc.OpUpgrade, Unit: "stage",
		Path: "/lib/liba1", Text: broken, Args: []string{"lib"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/codegen"}); err == nil {
		t.Fatal("regressed canary build succeeded")
	}
	health := func() *ipc.HealthInfo {
		resp, err := ctl.Call(&ipc.Request{Op: ipc.OpHealth})
		if err != nil || resp.Health == nil {
			t.Fatalf("health: %v", err)
		}
		return resp.Health
	}
	if h := health(); !h.UpgradeRollingBack {
		t.Fatalf("health does not report the rollback in progress: %+v", h)
	}
	// Any traffic at all nudges the stalled rollback through.
	wantExit(ctl, "/bin/ls")
	h := health()
	if h.UpgradeActive || h.UpgradeRollingBack {
		t.Fatalf("rollback did not complete: %+v", h)
	}
	if h.UpgradeVerdict == "" {
		t.Fatalf("no verdict after automatic rollback: %+v", h)
	}
	if n := stat("upgrades-rolled-back"); n != 1 {
		t.Fatalf("upgrades-rolled-back = %d, want 1", n)
	}

	// Zero post-rollback instantiations bound to the regressed v2: the
	// workload re-instantiates and its provenance is exactly the
	// pre-epoch provenance.
	if wantExit(ctl, "/bin/codegen") != cgExit {
		t.Fatal("post-rollback behaviour drifted")
	}
	after := explainKeys()
	if strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("binding provenance changed across the aborted epoch:\nbefore:\n%s\nafter:\n%s",
			strings.Join(before, "\n"), strings.Join(after, "\n"))
	}
	// The audit trail names the aborted epoch.
	resp, err := ctl.Call(&ipc.Request{Op: ipc.OpExplain, Path: "a1_f0"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "rolled back") {
		t.Fatalf("explain audit missing the rollback:\n%s", resp.Text)
	}
}
