package ipc

import (
	"reflect"
	"strings"
	"testing"
)

// TestCountersNamesFields pins the naming and order rule of the one
// counter list: kebab-case field names in declaration order, embedded
// structs listed in place, non-numeric and unexported fields skipped.
func TestCountersNamesFields(t *testing.T) {
	type inner struct {
		MeshPeersUp int
		Label       string
	}
	type report struct {
		UptimeMS  int64
		CacheHits uint64
		inner
		HTTPServer uint32
		Ready      bool
		hidden     uint64
	}
	got := Counters(&report{UptimeMS: 7, CacheHits: 3, inner: inner{MeshPeersUp: 2}, HTTPServer: 1, hidden: 9})
	want := []Counter{{"uptime-ms", 7}, {"cache-hits", 3}, {"mesh-peers-up", 2}, {"http-server", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Counters = %v, want %v", got, want)
	}
}

// TestHealthyRule pins the exit rule of omos health and omosd -health:
// draining, degraded or rolling back is unhealthy; nothing else is,
// whatever the counters say.
func TestHealthyRule(t *testing.T) {
	for _, tc := range []struct {
		h    HealthInfo
		want bool
	}{
		{HealthInfo{}, true},
		{HealthInfo{UpgradeActive: true, UpgradeEpoch: "e1", UpgradeVerdict: "old"}, true},
		{HealthInfo{Counters: []Counter{{"shed", 99}, {"recovered", 3}}}, true},
		{HealthInfo{Draining: true}, false},
		{HealthInfo{Degraded: true, DegradedReason: "queue"}, false},
		{HealthInfo{UpgradeActive: true, UpgradeRollingBack: true}, false},
	} {
		if got := tc.h.Healthy(); got != tc.want {
			t.Errorf("Healthy(%+v) = %v, want %v", tc.h, got, tc.want)
		}
	}
}

// TestRenderEndsWithCounters: the rendered report ends with exactly
// one name=value line per counter, in order, after the state lines.
func TestRenderEndsWithCounters(t *testing.T) {
	h := HealthInfo{
		Degraded: true, DegradedReason: "stuck build",
		UpgradeActive: true, UpgradeEpoch: "e2", UpgradeCanaryPct: 10,
		MeshSelf: "127.0.0.1:7070",
		Counters: []Counter{{"cache-hits", 4}, {"mesh-shards", 3}},
	}
	out := h.Render()
	for _, want := range []string{"degraded=true\n", `degraded-reason="stuck build"`, "upgrade-epoch=e2\n",
		"upgrade-canary-pct=10\n", "mesh-self=127.0.0.1:7070\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\ncache-hits=4\nmesh-shards=3\n") {
		t.Fatalf("render does not end with the counters:\n%s", out)
	}
}
