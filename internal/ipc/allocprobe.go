package ipc

import (
	"bytes"
	"runtime"
)

// AllocsPerFrameOp measures heap allocations per framed round trip
// (encode into the reused send buffer, seal, decode via readTagged
// into reused scratch) over iters iterations.  It is the bench-table
// counterpart of TestFramedHotPathAllocFree: the table records the
// number, the test pins it at zero.
func AllocsPerFrameOp(iters int) float64 {
	if iters <= 0 {
		iters = 1000
	}
	payload := bytes.Repeat([]byte{0xAB}, 256)
	var sb sendBuf
	sink := bytes.NewBuffer(make([]byte, 0, 4096))
	rd := bytes.NewReader(nil)
	var hdr [hdrSize]byte
	rbuf := make([]byte, 0, 4096)
	// One warm-up pass grows every buffer to its high-water mark.
	sb.reset()
	sb.Write(payload)
	sb.seal(1)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		sink.Reset()
		sb.reset()
		sb.Write(payload)
		sb.seal(uint64(i))
		sink.Write(sb.b)
		rd.Reset(sink.Bytes())
		if _, _, err := readTagged(rd, &hdr, &rbuf); err != nil {
			return -1
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}
