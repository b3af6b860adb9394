package ipc

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
)

// HealthInfo is the payload of OpHealth: the daemon's
// state and its whole counter list.  Typed fields carry only
// non-numeric state and the values a caller branches on; every number
// is a Counter.
type HealthInfo struct {
	// Draining is true once shutdown has begun: the daemon answers
	// in-flight work but accepts nothing new.
	Draining bool
	// Degraded is the daemon supervisor's verdict; DegradedReason says
	// why (queue pressure, a stuck build, a nearly full store).
	Degraded       bool
	DegradedReason string
	// Live-upgrade state: whether an epoch is open, which one, how wide
	// its canary is, and whether a rollback is in progress.
	// UpgradeVerdict carries the health gate's verdict while rolling
	// back, or the last aborted epoch's verdict when idle.
	UpgradeActive      bool
	UpgradeEpoch       string
	UpgradeCanaryPct   int
	UpgradeRollingBack bool
	UpgradeVerdict     string
	// MeshSelf is the daemon's ring member address (empty outside a
	// mesh).
	MeshSelf string
	// Counters is every counter the daemon keeps, in report order.
	Counters []Counter
}

// Counter is one named value of a report.
type Counter struct {
	Name  string
	Value uint64
}

// Counters lists the numeric fields of the struct v (or *v) as
// counters named by the kebab-case of each field name (CacheHits is
// "cache-hits", UptimeMS "uptime-ms"), in declaration order.  Fields
// of embedded structs are listed in place; non-numeric and unexported
// fields are skipped.
func Counters(v any) []Counter {
	return appendCounters(nil, reflect.Indirect(reflect.ValueOf(v)))
}

func appendCounters(cs []Counter, v reflect.Value) []Counter {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		switch {
		case f.Anonymous && fv.Kind() == reflect.Struct:
			cs = appendCounters(cs, fv)
		case !f.IsExported():
		case fv.CanUint():
			cs = append(cs, Counter{kebab(f.Name), fv.Uint()})
		case fv.CanInt():
			cs = append(cs, Counter{kebab(f.Name), uint64(fv.Int())})
		}
	}
	return cs
}

// wordStart matches a word boundary inside a Go identifier: a capital
// after a lower-case letter or digit, or the last capital of a run
// that starts a new word ("HTTPServer" -> "HTTP", "Server").
var wordStart = regexp.MustCompile(`([a-z0-9])([A-Z])|([A-Z])([A-Z][a-z])`)

// kebab lower-cases a Go identifier with a hyphen at each word
// boundary ("UptimeMS" -> "uptime-ms").
func kebab(s string) string {
	return strings.ToLower(wordStart.ReplaceAllString(s, "$1$3-$2$4"))
}

// Lookup returns the value of the named counter.
func (h *HealthInfo) Lookup(name string) (uint64, bool) {
	for _, c := range h.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Healthy is the one health verdict: a draining or degraded daemon is
// not healthy, nor is one rolling back a live upgrade.  omos health
// and omosd -health exit nonzero when it is false.
func (h *HealthInfo) Healthy() bool {
	return !h.Draining && !h.Degraded && !h.UpgradeRollingBack
}

// Render is the one text form of a report, shared by omos stats, omos
// health and omosd -health: the state, then one name=value line per
// counter in Counters order.
func (h *HealthInfo) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "draining=%v\ndegraded=%v\n", h.Draining, h.Degraded)
	if h.Degraded {
		fmt.Fprintf(&b, "degraded-reason=%q\n", h.DegradedReason)
	}
	if h.UpgradeActive || h.UpgradeVerdict != "" {
		fmt.Fprintf(&b, "upgrade-active=%v\nupgrade-epoch=%s\nupgrade-canary-pct=%d\nupgrade-rolling-back=%v\nupgrade-verdict=%q\n",
			h.UpgradeActive, h.UpgradeEpoch, h.UpgradeCanaryPct, h.UpgradeRollingBack, h.UpgradeVerdict)
	}
	if h.MeshSelf != "" {
		fmt.Fprintf(&b, "mesh-self=%s\n", h.MeshSelf)
	}
	for _, c := range h.Counters {
		fmt.Fprintf(&b, "%s=%d\n", c.Name, c.Value)
	}
	return b.String()
}
