package bench

import "testing"

// TestIPCMuxShape asserts the acceptance shape of the pipelining
// table: with 8 goroutines sharing one connection, pipelined calls
// must beat one call in flight on warm ops/sec.
func TestIPCMuxShape(t *testing.T) {
	serial, err := muxThroughputRow(8, 15, true)
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := muxThroughputRow(8, 15, false)
	if err != nil {
		t.Fatal(err)
	}
	s, p := serial.Extra["ops-per-sec"], pipelined.Extra["ops-per-sec"]
	if p <= s {
		t.Fatalf("pipelined %.0f ops/sec did not beat one-in-flight %.0f ops/sec at 8 goroutines", p, s)
	}
	t.Logf("8 goroutines: one in flight %.0f ops/sec, pipelined %.0f ops/sec (%.2fx)", s, p, p/s)
}
