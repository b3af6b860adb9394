package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile as runtime/pprof writes it: a gzipped profile.proto
// message.  Only the fields needed to walk each sample's stack are
// decoded: samples (location IDs and values), locations (their lines,
// innermost inlined frame first), functions (name) and the string
// table.

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs   map[uint64]int64    // function ID -> name string index
	strs    []string
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			name := int64(-1)
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for each field of a protobuf message: v carries
// varint and fixed values, b the bytes of length-delimited ones.
func protoFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when unpacked (b nil), every varint of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// funcPackage returns the import path of a symbol name such as
// "omos/internal/ipc.(*Client).Call".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// gcFrame reports whether a frame belongs to the garbage collector's
// own work: background marking and sweeping, and mark assists charged
// to allocating goroutines.
func gcFrame(name string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.sweepone"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Layer names a CPU sample can be attributed to: "runtime.gc" for
// collector work, the last element of the innermost omos package on
// the stack ("ipc.gob" when encoding/gob runs under ipc), or "" when
// no omos frame is on the stack.
func sampleLayer(stack []string) string {
	for _, f := range stack {
		if gcFrame(f) {
			return "runtime.gc"
		}
	}
	gob := false
	for _, f := range stack {
		pkg := funcPackage(f)
		if pkg == "encoding/gob" {
			gob = true
		}
		if pkg != "omos" && !strings.HasPrefix(pkg, "omos/") {
			continue
		}
		layer := pkg[strings.LastIndexByte(pkg, '/')+1:]
		if layer == "ipc" && gob {
			return "ipc.gob"
		}
		return layer
	}
	return ""
}

// cpuShareLayers are the layers that get their own cpu_share metric.
// Samples in any other package, or with no omos frame at all, count
// as cpu.unattributed_share.
var cpuShareLayers = []string{
	"ipc", "ipc.gob", "server", "mgraph", "minic", "asm", "buildgraph",
	"constraint", "link", "store", "mesh", "osim", "vm",
}

// cpuShares attributes every sample of a profile and returns each
// layer's share in percent, plus runtime.gc and unattributed, which
// together sum to 100.
func cpuShares(data []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	named := map[string]bool{"runtime.gc": true}
	for _, l := range cpuShareLayers {
		named[l] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := sampleLayer(p.stack(s))
		if !named[layer] {
			layer = "unattributed"
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for l := range named {
		shares[l] = 0
	}
	shares["unattributed"] = 0
	if total == 0 {
		return shares, 0, nil
	}
	for l, c := range counts {
		shares[l] = 100 * float64(c) / float64(total)
	}
	return shares, total, nil
}
