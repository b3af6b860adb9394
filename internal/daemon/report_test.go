package daemon

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"omos"
	"omos/internal/ipc"
	"omos/internal/workload"
)

// counter looks a counter up by name in a health report, failing the
// test when the report does not carry it.
func counter(t *testing.T, h *ipc.HealthInfo, name string) uint64 {
	t.Helper()
	if h == nil {
		t.Fatalf("no report to read %s from", name)
	}
	v, ok := h.Lookup(name)
	if !ok {
		t.Fatalf("report has no counter %q:\n%s", name, h.Render())
	}
	return v
}

// TestReportsShareOneCounterList pins server.Stats as the one counter
// list: the OpHealth reply that omos stats, omos health and omosd
// -health each fetch and Render carries every server.Stats field
// exactly once, under its kebab-case name and with its value, and the
// three renderings are byte-identical.
func TestReportsShareOneCounterList(t *testing.T) {
	sys, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallWorkloads(sys, workload.CodegenParams{Units: 2, FuncsPerUnit: 2, HotIters: 1}); err != nil {
		t.Fatal(err)
	}
	c, _ := startFaultDaemon(t, sys)
	if _, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/ls", Args: []string{"/"}}); err != nil {
		t.Fatal(err)
	}
	// Uptime is the one counter that moves while the daemon idles.
	uptime := regexp.MustCompile(`(?m)^uptime-ms=\d+$`)
	var out [3]string
	for i := range out {
		resp, err := c.Call(&ipc.Request{Op: ipc.OpHealth})
		if err != nil || resp.Health == nil {
			t.Fatalf("health: %v", err)
		}
		out[i] = uptime.ReplaceAllString(resp.Health.Render(), "uptime-ms=*")
	}
	if out[0] != out[1] || out[1] != out[2] {
		t.Fatalf("renderings differ:\nstats:\n%s\nhealth:\n%s\n-health:\n%s", out[0], out[1], out[2])
	}

	st := reflect.ValueOf(sys.Srv.Stats())
	word := regexp.MustCompile(`([a-z0-9])([A-Z])`)
	for i := 0; i < st.NumField(); i++ {
		f := st.Type().Field(i)
		name := strings.ToLower(word.ReplaceAllString(f.Name, "$1-$2"))
		want := fmt.Sprintf("\n%s=%d\n", name, st.Field(i).Uint())
		if n := strings.Count(out[0], "\n"+name+"="); n != 1 || !strings.Contains(out[0], want) {
			t.Errorf("server.Stats.%s: want exactly one %q line, found %d:\n%s", f.Name, want[1:len(want)-1], n, out[0])
		}
	}
	if st.FieldByName("ImagesBuilt").Uint() == 0 {
		t.Fatal("the run built nothing: the value check above proved little")
	}
}
