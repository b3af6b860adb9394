package store

import (
	"reflect"
	"strings"
	"testing"
)

// TestCodecRejectsFutureVersion: a version beyond the current one is
// another daemon's output and must be rejected, not misparsed.
func TestCodecRejectsFutureVersion(t *testing.T) {
	blob, err := Encode(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[4] = Version + 1
	if err := Verify(bad); err == nil {
		t.Error("Verify accepted a future version")
	}
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted a future version")
	}
}

// TestCodecRejectsOldVersion: a blob with the v3 header of an older
// layout is refused as an unsupported version by every entry point, so
// the server quarantines and rebuilds it rather than misparsing it.
func TestCodecRejectsOldVersion(t *testing.T) {
	blob, err := Encode(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	blob[4] = 3
	_, derr := Decode(blob)
	_, eerr := DecodeEpoch(blob)
	for _, err := range []error{Verify(blob), derr, eerr} {
		if err == nil || !strings.Contains(err.Error(), "unsupported version 3") {
			t.Errorf("v3 blob: err = %v, want unsupported version 3", err)
		}
	}
}

// TestCodecRoundTripsBindings pins the stable-resolution tail: a
// record with bindings and pins survives Encode/Decode exactly.
func TestCodecRoundTripsBindings(t *testing.T) {
	rec := sampleRecord()
	rec.BindKey = "bind-key-1"
	rec.Gen = 17
	rec.Bindings = []Binding{
		{Symbol: "printf", Definer: "/lib/libc", DefKey: "ck-libc", LibIdx: 0, Addr: 0x1000010},
		{Symbol: "qsort", Definer: "/lib/util", DefKey: "ck-util", LibIdx: 1, Addr: 0x1200040},
	}
	rec.Pins = []LibPin{
		{LibKey: "feedbeef0001", ContentKey: "ck-libc", Checksum: "aa55"},
		{LibKey: "feedbeef0002", ContentKey: "ck-util", Checksum: ""},
	}
	blob, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", rec, got)
	}
}

// TestCodecRejectsOutOfRangeBindingIndex: a binding whose library
// index points outside the record's library list is a corrupt record
// and must fail decode (the server then quarantines the blob) rather
// than replay a nonsense resolution.
func TestCodecRejectsOutOfRangeBindingIndex(t *testing.T) {
	rec := sampleRecord()
	rec.BindKey = "bind-key-1"
	rec.Bindings = []Binding{
		{Symbol: "printf", Definer: "/lib/libc", DefKey: "ck", LibIdx: uint32(len(rec.LibKeys)), Addr: 1},
	}
	blob, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(blob); err != nil {
		t.Fatalf("envelope must still verify (the corruption is structural): %v", err)
	}
	if _, err := Decode(blob); err == nil {
		t.Fatal("Decode accepted a binding index outside the library list")
	}
}
