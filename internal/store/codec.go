// Package store is the persistent tier of the OMOS image cache: a
// content-addressed blob store that keeps bound, relocated images
// across daemon restarts.
//
// The paper's central mechanism — caching link results in a
// persistent server — only survives as long as the server process
// does.  This package extends the cache's lifetime past the process:
// each cached image is serialized (segments, bound symbols,
// branch-table slots, placement) under its m-graph content key, so a
// restarted daemon reconstructs its shared frames from disk instead
// of relinking.  Corrupt or stale entries are detected by a versioned
// header and checksum and rejected, never loaded.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Codec layout (all integers little-endian):
//
//	magic     [4]byte "OMS1"
//	version   u32
//	paylen    u64
//	checksum  [32]byte  sha256 of the payload
//	payload   (see Record field order in encodePayload)
//
// A decoder that sees a wrong magic, an unknown version, a length
// that disagrees with the blob, or a checksum mismatch rejects the
// entry; the server then rebuilds the image from its m-graph, which
// is always safe.

// Magic identifies a serialized image record.
var Magic = [4]byte{'O', 'M', 'S', '1'}

// Version is the codec version, the only one Decode accepts; bump it
// on any layout change so blobs of another layout are rejected as
// stale (and rebuilt) rather than misparsed.
const Version = 4

// Record-type bytes leading every payload: a cached image, or a
// live-upgrade epoch record (the write-ahead transaction state of an
// in-flight library upgrade).
const (
	recImage = uint8(0)
	recEpoch = uint8(1)
)

// Epoch states persisted in an EpochRecord.  An active epoch found at
// warm boot rolls back (it never reached commit); a committing epoch
// is a durable intent and is redone.
const (
	EpochActive     = uint8(1)
	EpochCommitting = uint8(2)
)

// EpochLib is one staged definition of a live-upgrade epoch.
type EpochLib struct {
	Path     string
	OldSrc   string
	NewSrc   string
	IsLib    bool
	HadPrior bool
}

// EpochRecord is the durable state of a live-upgrade epoch: which
// paths are staged with what sources, how wide the canary is, and how
// far the transaction got.
type EpochRecord struct {
	ID        string
	State     uint8
	CanaryPct uint32
	Verdict   string
	Libs      []EpochLib
}

const headerSize = 4 + 4 + 8 + 32

// maxCount bounds decoded element counts against the blob size so a
// hostile length prefix cannot drive huge allocations.
const maxCount = 1 << 20

// Seg is a serialized image segment (shared read-only frames or a
// per-client writable template).
type Seg struct {
	Name    string
	Addr    uint64
	MemSize uint64
	Perm    uint8
	Data    []byte
}

// Sym is one bound symbol: name, absolute address, size, and the
// link-level kind byte (func/data; 0xff when the kind is unknown).
// Seg is the segment class the symbol's value lives in ('T'/'D'/'X',
// link.SegText etc.).
type Sym struct {
	Name string
	Addr uint64
	Size uint64
	Kind uint8
	Seg  uint8
}

// Patch is one recorded 8-byte patch site (link.AbsPatch/RelPatch):
// the absolute site address, the stored value (absolute patches
// only), and the segment class of the patch target.
type Patch struct {
	Site  uint64
	Value uint64
	Seg   uint8
}

// KindNone marks a symbol whose link kind was not recorded.
const KindNone = uint8(0xff)

// Binding is one persisted symbol resolution: the symbol, the
// namespace path and content key of its definer, the definer's
// position in the image's library list, and the address bound at
// resolution time.
type Binding struct {
	Symbol  string
	Definer string
	DefKey  string
	LibIdx  uint32
	Addr    uint64
}

// LibPin is one pinned library identity: the cache key the image
// linked against, its placement-independent content key, and the
// store blob checksum at pin time (empty if the library was never
// persisted).
type LibPin struct {
	LibKey     string
	ContentKey string
	Checksum   string
}

// Record is the serializable form of one cached instance.  It carries
// everything the server needs to reconstruct the image without
// relinking: segment bytes, the bound symbol table, branch-table
// slots, the solver placement to re-reserve, and the keys of the
// library instances it was linked against.
type Record struct {
	// Key is the cache key (content hash + placement digest) the blob
	// is stored under.
	Key string
	// Name is the image's display name (e.g. "lib:/lib/libc").
	Name string

	// SolverKey plus the bases/sizes reproduce the constraint-solver
	// placement on warm boot, so re-instantiation resolves to the same
	// addresses and therefore the same cache key.
	SolverKey string
	TextBase  uint64
	TextSize  uint64
	DataBase  uint64
	DataSize  uint64

	// Entry is the image entry point (zero for libraries).
	Entry uint64
	Syms  []Sym

	// NumRelocs/ExternBinds/ResText/ResData/ResBSS preserve the link
	// result's accounting so stats and cost estimates survive reload.
	NumRelocs   uint64
	ExternBinds uint64
	ResTextSize uint64
	ResDataSize uint64
	ResBSSSize  uint64

	// ROSegs are the shared read-only segments; RWSegs the pristine
	// writable templates copied per client.
	ROSegs []Seg
	RWSegs []Seg

	// BTSlots are the branch-table slot addresses for upward
	// references (§4.1 lib-branch-table libraries).
	BTSlots []Sym

	// LibKeys are the cache keys of the library instances this image
	// links against; they must be loadable for this record to be used.
	LibKeys []string

	// The rebase metadata: the placement-independent content key (empty
	// for an image that cannot serve as a rebase source), the link
	// result's segment bases, the entry point's segment class, and the
	// recorded patch sites.
	ContentKey  string
	ResTextBase uint64
	ResDataBase uint64
	EntrySeg    uint8
	AbsPatches  []Patch
	RelPatches  []Patch

	// The stable-resolution state.  BindKey is the image's resolution
	// identity; Gen the namespace generation the binding table was
	// recorded under; Bindings the symbol -> definer table replayed at
	// warm resolution; Pins the library identities verified before the
	// instance is trusted.
	BindKey  string
	Gen      uint64
	Bindings []Binding
	Pins     []LibPin
}

// Encode serializes a record with the versioned header and checksum.
func Encode(rec *Record) ([]byte, error) {
	if rec.Key == "" {
		return nil, fmt.Errorf("store: encode: empty key")
	}
	return seal(encodePayload(rec)), nil
}

// seal wraps a payload in the versioned, checksummed envelope.
func seal(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(headerSize + len(payload))
	buf.Write(Magic[:])
	writeU32(&buf, Version)
	writeU64(&buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	buf.Write(payload)
	return buf.Bytes()
}

// EncodeEpoch serializes a live-upgrade epoch record.
func EncodeEpoch(rec *EpochRecord) ([]byte, error) {
	if rec.ID == "" {
		return nil, fmt.Errorf("store: encode epoch: empty id")
	}
	var buf bytes.Buffer
	buf.WriteByte(recEpoch)
	writeStr(&buf, rec.ID)
	buf.WriteByte(rec.State)
	writeU32(&buf, rec.CanaryPct)
	writeStr(&buf, rec.Verdict)
	writeU32(&buf, uint32(len(rec.Libs)))
	for _, l := range rec.Libs {
		writeStr(&buf, l.Path)
		writeStr(&buf, l.OldSrc)
		writeStr(&buf, l.NewSrc)
		flags := uint8(0)
		if l.IsLib {
			flags |= 1
		}
		if l.HadPrior {
			flags |= 2
		}
		buf.WriteByte(flags)
	}
	return seal(buf.Bytes()), nil
}

func encodePayload(rec *Record) []byte {
	var buf bytes.Buffer
	buf.WriteByte(recImage)
	writeStr(&buf, rec.Key)
	writeStr(&buf, rec.Name)
	writeStr(&buf, rec.SolverKey)
	writeU64(&buf, rec.TextBase)
	writeU64(&buf, rec.TextSize)
	writeU64(&buf, rec.DataBase)
	writeU64(&buf, rec.DataSize)
	writeU64(&buf, rec.Entry)
	writeU32(&buf, uint32(len(rec.Syms)))
	for _, s := range rec.Syms {
		writeStr(&buf, s.Name)
		writeU64(&buf, s.Addr)
		writeU64(&buf, s.Size)
		buf.WriteByte(s.Kind)
		buf.WriteByte(s.Seg)
	}
	writeU64(&buf, rec.NumRelocs)
	writeU64(&buf, rec.ExternBinds)
	writeU64(&buf, rec.ResTextSize)
	writeU64(&buf, rec.ResDataSize)
	writeU64(&buf, rec.ResBSSSize)
	writeSegs(&buf, rec.ROSegs)
	writeSegs(&buf, rec.RWSegs)
	writeU32(&buf, uint32(len(rec.BTSlots)))
	for _, s := range rec.BTSlots {
		writeStr(&buf, s.Name)
		writeU64(&buf, s.Addr)
	}
	writeU32(&buf, uint32(len(rec.LibKeys)))
	for _, k := range rec.LibKeys {
		writeStr(&buf, k)
	}
	writeStr(&buf, rec.ContentKey)
	writeU64(&buf, rec.ResTextBase)
	writeU64(&buf, rec.ResDataBase)
	buf.WriteByte(rec.EntrySeg)
	writePatches(&buf, rec.AbsPatches)
	writePatches(&buf, rec.RelPatches)
	writeStr(&buf, rec.BindKey)
	writeU64(&buf, rec.Gen)
	writeU32(&buf, uint32(len(rec.Bindings)))
	for _, b := range rec.Bindings {
		writeStr(&buf, b.Symbol)
		writeStr(&buf, b.Definer)
		writeStr(&buf, b.DefKey)
		writeU32(&buf, b.LibIdx)
		writeU64(&buf, b.Addr)
	}
	writeU32(&buf, uint32(len(rec.Pins)))
	for _, p := range rec.Pins {
		writeStr(&buf, p.LibKey)
		writeStr(&buf, p.ContentKey)
		writeStr(&buf, p.Checksum)
	}
	return buf.Bytes()
}

func writePatches(buf *bytes.Buffer, ps []Patch) {
	writeU32(buf, uint32(len(ps)))
	for _, p := range ps {
		writeU64(buf, p.Site)
		writeU64(buf, p.Value)
		buf.WriteByte(p.Seg)
	}
}

func writeSegs(buf *bytes.Buffer, segs []Seg) {
	writeU32(buf, uint32(len(segs)))
	for _, s := range segs {
		writeStr(buf, s.Name)
		writeU64(buf, s.Addr)
		writeU64(buf, s.MemSize)
		buf.WriteByte(s.Perm)
		writeBytes(buf, s.Data)
	}
}

// Verify checks a blob's envelope — magic, version, payload length,
// and SHA-256 checksum — without decoding the payload.  This is the
// scrubber's fast integrity pass: any blob Verify accepts has exactly
// the bytes its writer checksummed (a later Decode can still reject
// it as structurally stale, which is a rebuild, not corruption).
func Verify(b []byte) error {
	_, err := open(b)
	return err
}

// open verifies the envelope and returns the payload.
func open(b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("store: blob too short (%d bytes)", len(b))
	}
	if !bytes.Equal(b[:4], Magic[:]) {
		return nil, fmt.Errorf("store: bad magic %q", b[:4])
	}
	if ver := binary.LittleEndian.Uint32(b[4:8]); ver != Version {
		return nil, fmt.Errorf("store: unsupported version %d", ver)
	}
	paylen := binary.LittleEndian.Uint64(b[8:16])
	payload := b[headerSize:]
	if paylen != uint64(len(payload)) {
		return nil, fmt.Errorf("store: payload length %d, have %d bytes", paylen, len(payload))
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], b[16:48]) {
		return nil, fmt.Errorf("store: checksum mismatch")
	}
	return payload, nil
}

// DecodeEpoch parses a live-upgrade epoch record.  Anything else —
// including an image record under the epoch key — is an error the
// caller treats as corrupt.
func DecodeEpoch(b []byte) (*EpochRecord, error) {
	payload, err := open(b)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	if t := r.u8(); r.err == nil && t != recEpoch {
		return nil, fmt.Errorf("store: record type %d is not an epoch", t)
	}
	rec := &EpochRecord{}
	rec.ID = r.str()
	rec.State = r.u8()
	rec.CanaryPct = r.u32()
	rec.Verdict = r.str()
	n := r.count(len(payload))
	for i := 0; i < n && r.err == nil; i++ {
		var l EpochLib
		l.Path = r.str()
		l.OldSrc = r.str()
		l.NewSrc = r.str()
		flags := r.u8()
		l.IsLib = flags&1 != 0
		l.HadPrior = flags&2 != 0
		rec.Libs = append(rec.Libs, l)
	}
	if r.err != nil {
		return nil, fmt.Errorf("store: decode epoch: %w", r.err)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("store: %d trailing payload bytes", len(payload)-r.off)
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("store: decode epoch: empty id")
	}
	if rec.State != EpochActive && rec.State != EpochCommitting {
		return nil, fmt.Errorf("store: decode epoch: unknown state %d", rec.State)
	}
	return rec, nil
}

// Decode parses and verifies a serialized record.  Any structural
// problem — bad magic, unknown version, truncation, checksum
// mismatch, implausible counts, trailing bytes — is an error; the
// caller treats the entry as corrupt and rebuilds.
func Decode(b []byte) (*Record, error) {
	payload, err := open(b)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	if t := r.u8(); r.err == nil && t != recImage {
		return nil, fmt.Errorf("store: record type %d is not an image", t)
	}
	rec := &Record{}
	rec.Key = r.str()
	rec.Name = r.str()
	rec.SolverKey = r.str()
	rec.TextBase = r.u64()
	rec.TextSize = r.u64()
	rec.DataBase = r.u64()
	rec.DataSize = r.u64()
	rec.Entry = r.u64()
	nsyms := r.count(len(payload))
	rec.Syms = make([]Sym, 0, nsyms)
	for i := 0; i < nsyms && r.err == nil; i++ {
		var s Sym
		s.Name = r.str()
		s.Addr = r.u64()
		s.Size = r.u64()
		s.Kind = r.u8()
		s.Seg = r.u8()
		rec.Syms = append(rec.Syms, s)
	}
	rec.NumRelocs = r.u64()
	rec.ExternBinds = r.u64()
	rec.ResTextSize = r.u64()
	rec.ResDataSize = r.u64()
	rec.ResBSSSize = r.u64()
	rec.ROSegs = r.segs(len(payload))
	rec.RWSegs = r.segs(len(payload))
	nbt := r.count(len(payload))
	rec.BTSlots = make([]Sym, 0, nbt)
	for i := 0; i < nbt && r.err == nil; i++ {
		var s Sym
		s.Name = r.str()
		s.Addr = r.u64()
		rec.BTSlots = append(rec.BTSlots, s)
	}
	nlibs := r.count(len(payload))
	rec.LibKeys = make([]string, 0, nlibs)
	for i := 0; i < nlibs && r.err == nil; i++ {
		rec.LibKeys = append(rec.LibKeys, r.str())
	}
	rec.ContentKey = r.str()
	rec.ResTextBase = r.u64()
	rec.ResDataBase = r.u64()
	rec.EntrySeg = r.u8()
	rec.AbsPatches = r.patches(len(payload))
	rec.RelPatches = r.patches(len(payload))
	rec.BindKey = r.str()
	rec.Gen = r.u64()
	nbind := r.count(len(payload))
	if nbind > 0 {
		rec.Bindings = make([]Binding, 0, nbind)
	}
	for i := 0; i < nbind && r.err == nil; i++ {
		var bd Binding
		bd.Symbol = r.str()
		bd.Definer = r.str()
		bd.DefKey = r.str()
		bd.LibIdx = r.u32()
		bd.Addr = r.u64()
		// A binding pointing outside the library list is a corrupt
		// record: reject it here so the server quarantines the blob
		// instead of replaying a nonsense resolution.
		if r.err == nil && int(bd.LibIdx) >= len(rec.LibKeys) {
			r.err = fmt.Errorf("binding %q: library index %d out of range (have %d libraries)",
				bd.Symbol, bd.LibIdx, len(rec.LibKeys))
		}
		rec.Bindings = append(rec.Bindings, bd)
	}
	npins := r.count(len(payload))
	if npins > 0 {
		rec.Pins = make([]LibPin, 0, npins)
	}
	for i := 0; i < npins && r.err == nil; i++ {
		var p LibPin
		p.LibKey = r.str()
		p.ContentKey = r.str()
		p.Checksum = r.str()
		rec.Pins = append(rec.Pins, p)
	}
	if r.err != nil {
		return nil, fmt.Errorf("store: decode: %w", r.err)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("store: %d trailing payload bytes", len(payload)-r.off)
	}
	if rec.Key == "" {
		return nil, fmt.Errorf("store: decode: empty key")
	}
	return rec, nil
}

func writeU32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeStr(w *bytes.Buffer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func writeBytes(w *bytes.Buffer, p []byte) {
	writeU32(w, uint32(len(p)))
	w.Write(p)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) bytes(p []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(p) > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return
	}
	copy(p, r.b[r.off:])
	r.off += len(p)
}

func (r *reader) u8() uint8 {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u64() uint64 {
	var b [8]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// count reads a u32 element count and sanity-bounds it against the
// remaining payload so corrupt prefixes cannot force huge allocations.
func (r *reader) count(total int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if n > maxCount || int(n) > total-r.off {
		r.err = fmt.Errorf("implausible element count %d", n)
		return 0
	}
	return int(n)
}

func (r *reader) blob() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int(n) > len(r.b)-r.off {
		r.err = fmt.Errorf("implausible length %d", n)
		return nil
	}
	p := make([]byte, n)
	r.bytes(p)
	return p
}

func (r *reader) str() string { return string(r.blob()) }

func (r *reader) patches(total int) []Patch {
	n := r.count(total)
	if n == 0 {
		return nil
	}
	ps := make([]Patch, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var p Patch
		p.Site = r.u64()
		p.Value = r.u64()
		p.Seg = r.u8()
		ps = append(ps, p)
	}
	return ps
}

func (r *reader) segs(total int) []Seg {
	n := r.count(total)
	segs := make([]Seg, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var s Seg
		s.Name = r.str()
		s.Addr = r.u64()
		s.MemSize = r.u64()
		s.Perm = r.u8()
		s.Data = r.blob()
		segs = append(segs, s)
	}
	return segs
}
