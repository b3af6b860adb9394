package server

import (
	"bytes"
	"encoding/hex"
	"sort"
	"strings"

	"fmt"

	"omos/internal/buildgraph"
	"omos/internal/constraint"
	"omos/internal/fault"
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/obj"
	"omos/internal/store"
)

// This file is the bridge between the in-memory image cache and the
// persistent store tier: cached instances are serialized through
// store.Record on build (write-through), reconstructed as shared
// frames at daemon boot (warm load), and evicted LRU-first when the
// store exceeds its byte budget.

// AttachStore attaches a persistent store as the backing tier of the
// image cache and warm-loads every decodable entry: shared frames are
// re-materialized in the kernel and the constraint-solver placements
// re-reserved, so subsequent instantiations of unchanged meta-objects
// hit the cache without a single relink.  Corrupt or stale entries
// are rejected (and removed) rather than loaded.  Returns the number
// of instances reconstructed.
func (s *Server) AttachStore(st *store.Store) int {
	s.cacheMu.Lock()
	s.store = st
	s.cacheMu.Unlock()
	before := s.stats.WarmLoaded.Load()
	// Oldest-first so reconstruction preserves the persisted LRU
	// order in the in-memory recency tracking.  Warm loading is
	// best-effort: a panic reconstructing one entry (a decoder bug, an
	// injected fault) skips that entry — the image rebuilds from
	// source on demand — and must never prevent boot.
	for _, key := range st.KeysLRU() {
		if key == epochStoreKey {
			// Transaction state, not an image; resolved below.
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.stats.Recovered.Add(1)
				}
			}()
			s.loadFromStore(key, map[string]bool{})
		}()
	}
	n := int(s.stats.WarmLoaded.Load() - before)
	// A daemon killed mid-upgrade left its epoch record behind: redo a
	// durable commit intent, roll back anything earlier — either way
	// the namespace boots consistent, never torn.
	s.recoverEpoch(st)
	// The byte budget may have shrunk since the blobs were written.
	s.evictForCapacity("")
	return n
}

// CloseStore flushes and detaches the persistent store.  Safe to call
// when no store is attached.
func (s *Server) CloseStore() error {
	s.cacheMu.Lock()
	st := s.store
	s.store = nil
	s.cacheMu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}

// FlushStore persists the store's LRU index without detaching.
func (s *Server) FlushStore() error {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st == nil {
		return nil
	}
	return st.Flush()
}

// touch marks a cache key as most recently used in both tiers.  The
// in-memory stamp is a per-instance atomic, so cache hits need no
// cache write lock; the store keeps its own lock.
func (s *Server) touch(key string, inst *Instance, st *store.Store) {
	inst.lastUse.Store(s.useSeq.Add(1))
	if st != nil {
		st.Touch(key)
	}
}

// checkpointInstance writes a completed build-graph node's instance
// through to the persistent store, the moment the node finishes —
// independent of whether the enclosing run ever completes.  This is
// what makes partial builds resumable: a daemon killed after K of N
// nodes finds K decodable records at the next warm boot and relinks
// only the missing N-K.  Checkpointing is best-effort: a failed (or
// fault-injected, or panicking) checkpoint costs the next session's
// resume of this node, never the current build.
func (s *Server) checkpointInstance(node *buildgraph.Node, inst *Instance) {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st == nil || inst.place.SolverKey == "" {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.stats.Recovered.Add(1)
			s.graph.Checkpointed(node, 0, fmt.Errorf("recovered panic: %v", r))
		}
	}()
	if err := s.faults.Fire(fault.SiteCheckpoint); err != nil {
		s.graph.Checkpointed(node, 0, err)
		return
	}
	n, err := s.persistInstance(inst)
	if n > 0 || err != nil {
		s.graph.Checkpointed(node, n, err)
	}
}

// persistInstance writes a freshly built instance through to the
// store, returning the encoded size.  (0, nil) means there was
// nothing to do: no store attached, or the instance carries no solver
// placement to restore.
func (s *Server) persistInstance(inst *Instance) (int, error) {
	s.cacheMu.RLock()
	st := s.store
	s.cacheMu.RUnlock()
	if st == nil || inst.place.SolverKey == "" {
		return 0, nil
	}
	blob, err := store.Encode(s.recordOf(inst))
	if err != nil {
		return 0, err
	}
	if err := st.Put(inst.Key, blob); err != nil {
		return 0, err
	}
	// Record the blob's envelope checksum: images linked against this
	// instance from here on pin the exact bytes now on disk.
	s.setBlobSum(inst.Key, blobChecksum(blob))
	s.kern.ChargeTotalServer(uint64(len(blob)) * s.kern.Cost.StoreWritePerByte)
	// Capacity enforcement happens in buildShared once this build's
	// flight is deregistered; an in-flight build must not evict the
	// library instances it references.
	return len(blob), nil
}

// blobCheckSumLo/Hi delimit the SHA-256 payload checksum inside a
// store blob's envelope (magic + version + paylen precede it).
const (
	blobCheckSumLo = 16
	blobCheckSumHi = 48
)

// blobChecksum extracts the envelope checksum of an encoded blob as
// hex — the on-disk identity pins carry.  Reading it from the bytes
// already in hand (rather than re-reading the store) keeps pin
// bookkeeping off the store's fault surface.
func blobChecksum(blob []byte) string {
	if len(blob) < blobCheckSumHi {
		return ""
	}
	return hex.EncodeToString(blob[blobCheckSumLo:blobCheckSumHi])
}

// recordOf serializes an instance's reconstruction state: segment
// bytes, bound symbols, branch-table slots, placement, library keys,
// and the resolution state — the binding table recorded for the
// image and the library pins to re-verify at warm load.
func (s *Server) recordOf(inst *Instance) *store.Record {
	rec := &store.Record{
		Key:         inst.Key,
		Name:        inst.Name,
		SolverKey:   inst.place.SolverKey,
		TextBase:    inst.place.TextBase,
		TextSize:    inst.place.TextSize,
		DataBase:    inst.place.DataBase,
		DataSize:    inst.place.DataSize,
		Entry:       inst.Res.Image.Entry,
		NumRelocs:   uint64(inst.Res.NumRelocs),
		ExternBinds: uint64(inst.Res.ExternBinds),
		ResTextSize: inst.Res.TextSize,
		ResDataSize: inst.Res.DataSize,
		ResBSSSize:  inst.Res.BSSSize,
		ContentKey:  inst.ContentKey,
		ResTextBase: inst.Res.TextBase,
		ResDataBase: inst.Res.DataBase,
		EntrySeg:    inst.Res.EntrySeg,
	}
	for _, p := range inst.Res.AbsPatches {
		rec.AbsPatches = append(rec.AbsPatches, store.Patch{Site: p.Site, Value: p.Value, Seg: p.Seg})
	}
	for _, p := range inst.Res.RelPatches {
		rec.RelPatches = append(rec.RelPatches, store.Patch{Site: p.Site, Seg: p.Seg})
	}
	names := make([]string, 0, len(inst.Res.Image.Syms))
	for n := range inst.Res.Image.Syms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sym := store.Sym{Name: n, Addr: inst.Res.Image.Syms[n], Size: inst.Res.SymSizes[n], Kind: store.KindNone}
		if k, ok := inst.Res.SymKinds[n]; ok {
			sym.Kind = uint8(k)
		}
		sym.Seg = inst.Res.SymSegs[n]
		rec.Syms = append(rec.Syms, sym)
	}
	for _, seg := range inst.ROSegs {
		data := seg.Bytes()
		memSize := uint64(len(data))
		// Trailing zero fill (bss, page padding) reconstructs from
		// MemSize; don't store it.
		data = bytes.TrimRight(data, "\x00")
		rec.ROSegs = append(rec.ROSegs, store.Seg{
			Name: seg.Name, Addr: seg.Addr, MemSize: memSize, Perm: seg.Perm,
			Data: append([]byte(nil), data...),
		})
	}
	for i := range inst.RWSegs {
		seg := &inst.RWSegs[i]
		rec.RWSegs = append(rec.RWSegs, store.Seg{
			Name: seg.Name, Addr: seg.Addr, MemSize: seg.MemSize, Perm: uint8(seg.Perm),
			Data: append([]byte(nil), seg.Data...),
		})
	}
	btNames := make([]string, 0, len(inst.BTSlots))
	for n := range inst.BTSlots {
		btNames = append(btNames, n)
	}
	sort.Strings(btNames)
	for _, n := range btNames {
		rec.BTSlots = append(rec.BTSlots, store.Sym{Name: n, Addr: inst.BTSlots[n]})
	}
	for _, li := range inst.Libs {
		rec.LibKeys = append(rec.LibKeys, li.Key)
	}
	rec.BindKey = inst.bindKey
	for _, p := range inst.Pins {
		rec.Pins = append(rec.Pins, store.LibPin{
			LibKey: p.LibKey, ContentKey: p.ContentKey, Checksum: p.Checksum,
		})
	}
	// Persist the binding table only while it still describes this
	// instance's libraries — a concurrent re-resolution for different
	// library content must not be attributed to this image.
	if tbl := s.bindingTable(inst.bindKey); tbl != nil && len(tbl.LibKeys) == len(inst.Libs) {
		match := true
		for i, ck := range tbl.LibKeys {
			if ck == "" || inst.Libs[i].ContentKey != ck {
				match = false
				break
			}
		}
		if match {
			rec.Gen = tbl.Gen
			for _, b := range tbl.Bindings {
				rec.Bindings = append(rec.Bindings, store.Binding{
					Symbol: b.Symbol, Definer: b.Definer, DefKey: b.DefKey,
					LibIdx: uint32(b.LibIdx), Addr: b.Addr,
				})
			}
		}
	}
	return rec
}

// loadFromStore reconstructs the instance stored under key (loading
// its library dependencies first) and installs it in the cache.
// Returns nil when the entry is absent, corrupt, stale, or its
// placement can no longer be honored — in every such case the entry
// is discarded and the next instantiation simply rebuilds.
func (s *Server) loadFromStore(key string, visiting map[string]bool) *Instance {
	s.cacheMu.RLock()
	inst := s.cache[key]
	st := s.store
	s.cacheMu.RUnlock()
	if inst != nil {
		return inst
	}
	if st == nil || visiting[key] {
		return nil
	}
	visiting[key] = true

	blob, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil
	}
	reject := func() *Instance {
		st.Quarantine(key)
		return nil
	}
	rec, err := store.Decode(blob)
	if err != nil || rec.Key != key {
		return reject()
	}
	// Register the blob's on-disk identity first: images loaded after
	// this one verify their library pins against it.
	s.setBlobSum(key, blobChecksum(blob))
	var libs []*Instance
	for _, lk := range rec.LibKeys {
		li := s.loadFromStore(lk, visiting)
		if li == nil {
			// Unusable without its libraries: stale, rebuild instead.
			return reject()
		}
		libs = append(libs, li)
	}
	s.solverMu.Lock()
	err = s.solver.Restore(rec.SolverKey,
		constraint.Placement{TextBase: rec.TextBase, DataBase: rec.DataBase},
		rec.TextSize, rec.DataSize)
	s.solverMu.Unlock()
	if err != nil {
		return reject()
	}
	inst, err = s.instanceFromRecord(rec, libs)
	if err != nil {
		return reject()
	}
	// Hijack defense at warm-restart time: a pinned image whose
	// library identities no longer match (or an injected definer swap
	// at the namespace.hijack site) is quarantined, never loaded — the
	// next instantiation rebuilds and re-pins from source.
	if err := s.verifyPins(inst); err != nil {
		s.ReleaseInstance(inst)
		return reject()
	}
	// Reinstall the persisted binding table so this session resolves
	// the image with zero symbol searches.  A table this session
	// already recomputed wins over the stored one.
	if rec.BindKey != "" && len(rec.Bindings) > 0 {
		tbl := &BindingTable{
			Image:    rec.Name,
			Gen:      rec.Gen,
			Resolved: "warm-load",
			LibKeys:  make([]string, len(libs)),
		}
		for i, li := range libs {
			tbl.LibKeys[i] = li.ContentKey
		}
		for _, b := range rec.Bindings {
			tbl.Bindings = append(tbl.Bindings, Binding{
				Symbol: b.Symbol, Definer: b.Definer, DefKey: b.DefKey,
				LibIdx: int(b.LibIdx), Addr: b.Addr,
			})
		}
		s.installBindings(rec.BindKey, tbl, false)
	}
	// Mark the instance as a prior session's checkpoint: the first
	// build-graph node that resolves to it counts as a resume
	// (finishNode in graph.go).
	inst.warm = true
	s.cacheMu.Lock()
	if prior := s.cache[key]; prior != nil {
		s.cacheMu.Unlock()
		s.ReleaseInstance(inst)
		return prior
	}
	s.cache[key] = inst
	if inst.ContentKey != "" {
		s.variants[inst.ContentKey] = append(s.variants[inst.ContentKey], inst)
	}
	s.cacheMu.Unlock()
	s.touch(key, inst, st)
	s.stats.WarmLoaded.Add(1)
	s.kern.ChargeTotalServer(uint64(len(blob)) * s.kern.Cost.StoreLoadPerByte)
	return inst
}

// instanceFromRecord rebuilds the in-memory instance: shared frames
// for read-only segments, pristine byte templates for writable ones,
// and a link.Result carrying the bound symbol table and accounting.
func (s *Server) instanceFromRecord(rec *store.Record, libs []*Instance) (*Instance, error) {
	res := resultFromRecord(rec)
	inst := &Instance{
		Key: rec.Key, ContentKey: rec.ContentKey, Name: rec.Name, Res: res, Libs: libs,
		bindKey: rec.BindKey,
		place: placeRec{
			SolverKey: rec.SolverKey,
			TextBase:  rec.TextBase, TextSize: rec.TextSize,
			DataBase: rec.DataBase, DataSize: rec.DataSize,
		},
	}
	for _, sr := range rec.ROSegs {
		fs, err := s.kern.FT.MakeFrameSeg(sr.Name, sr.Addr, sr.Data, sr.MemSize, sr.Perm)
		if err != nil {
			for _, made := range inst.ROSegs {
				s.kern.FT.Release(made)
			}
			return nil, err
		}
		inst.ROSegs = append(inst.ROSegs, fs)
	}
	for _, sr := range rec.RWSegs {
		inst.RWSegs = append(inst.RWSegs, image.Segment{
			Name: sr.Name, Addr: sr.Addr, Data: sr.Data,
			MemSize: sr.MemSize, Perm: image.Perm(sr.Perm),
		})
	}
	if len(rec.BTSlots) > 0 {
		inst.BTSlots = make(map[string]uint64, len(rec.BTSlots))
		for _, sym := range rec.BTSlots {
			inst.BTSlots[sym.Name] = sym.Addr
		}
	}
	for _, p := range rec.Pins {
		inst.Pins = append(inst.Pins, Pin{
			LibKey: p.LibKey, ContentKey: p.ContentKey, Checksum: p.Checksum,
		})
	}
	return inst, nil
}

// resultFromRecord rebuilds the link.Result a record was persisted
// from: the bound symbol table, the accounting, and — for records with
// a ContentKey — the full rebase metadata, so the result can serve
// as a link.Rebase source.  Shared between warm restore and the mesh
// blob-install path, which decodes a peer's record instead of a store
// entry.
func resultFromRecord(rec *store.Record) *link.Result {
	im := &image.Image{Name: rec.Name, Entry: rec.Entry, Syms: map[string]uint64{}}
	res := &link.Result{
		Image:       im,
		Syms:        im.Syms,
		AllSyms:     map[string]uint64{},
		SymSizes:    map[string]uint64{},
		SymKinds:    map[string]obj.SymKind{},
		NumRelocs:   int(rec.NumRelocs),
		ExternBinds: int(rec.ExternBinds),
		TextBase:    rec.ResTextBase,
		DataBase:    rec.ResDataBase,
		TextSize:    rec.ResTextSize,
		DataSize:    rec.ResDataSize,
		BSSSize:     rec.ResBSSSize,
		EntrySeg:    rec.EntrySeg,
	}
	for _, sym := range rec.Syms {
		im.Syms[sym.Name] = sym.Addr
		res.AllSyms[sym.Name] = sym.Addr
		if sym.Size > 0 {
			res.SymSizes[sym.Name] = sym.Size
		}
		if sym.Kind != store.KindNone {
			res.SymKinds[sym.Name] = obj.SymKind(sym.Kind)
		}
	}
	// A record with a content key carries the rebase metadata;
	// reconstruct everything link.Rebase needs (segment bytes, symbol
	// segment classes, patch sites) so the warm-loaded instance can
	// serve as a rebase source.
	if rec.ContentKey != "" {
		res.SymSegs = make(map[string]byte, len(rec.Syms))
		for _, sym := range rec.Syms {
			if sym.Seg != 0 {
				res.SymSegs[sym.Name] = sym.Seg
			}
		}
		for _, p := range rec.AbsPatches {
			res.AbsPatches = append(res.AbsPatches, link.AbsPatch{Site: p.Site, Value: p.Value, Seg: p.Seg})
		}
		for _, p := range rec.RelPatches {
			res.RelPatches = append(res.RelPatches, link.RelPatch{Site: p.Site, Seg: p.Seg})
		}
		for _, sr := range rec.ROSegs {
			// Stored data is zero-trimmed; Rebase patches sites anywhere
			// in the segment, so restore the full extent.
			data := make([]byte, sr.MemSize)
			copy(data, sr.Data)
			im.Segments = append(im.Segments, image.Segment{
				Name: segBaseName(sr.Name), Addr: sr.Addr, Data: data,
				MemSize: sr.MemSize, Perm: image.Perm(sr.Perm),
			})
		}
		for _, sr := range rec.RWSegs {
			im.Segments = append(im.Segments, image.Segment{
				Name: segBaseName(sr.Name), Addr: sr.Addr, Data: sr.Data,
				MemSize: sr.MemSize, Perm: image.Perm(sr.Perm),
			})
		}
	}
	return res
}

// evictForCapacity brings the store back under its byte budget by
// evicting least-recently-used entries from both tiers.  Victims are
// skipped while live: instances whose frames are still mapped by a
// process, and libraries other cached images link against — the
// refcounts, not the policy, decide when memory is truly reclaimable
// (frames a running process maps stay alive through its own refs
// regardless).  exclude names a key that must survive this sweep: the
// instance a builder is about to hand to its caller, which holds no
// process references yet.  Solver placements are kept so a later
// rebuild lands at the same addresses and re-earns the same cache key.
func (s *Server) evictForCapacity(exclude string) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	st := s.store
	if st == nil || st.OverCapacity() == 0 {
		return
	}
	if len(s.inflight) > 0 {
		// In-flight builds may hold references to would-be victims;
		// the next persist retries.
		return
	}
	deps := map[string]int{}
	for _, inst := range s.cache {
		for _, li := range inst.Libs {
			deps[li.Key]++
		}
	}
	for _, key := range st.KeysLRU() {
		if st.OverCapacity() == 0 {
			break
		}
		if key == exclude || key == epochStoreKey {
			continue
		}
		if inst := s.cache[key]; inst != nil {
			if deps[key] > 0 || s.mappedLive(inst) {
				continue
			}
			s.evictEntryLocked(inst)
		}
		st.Delete(key)
	}
}

// segBaseName strips the instance-name prefix frame segments carry
// ("lib:/lib/libc/text" -> "text"), recovering the image segment name.
func segBaseName(n string) string {
	if i := strings.LastIndexByte(n, '/'); i >= 0 {
		return n[i+1:]
	}
	return n
}

// mappedLive reports whether any live process still maps the
// instance's shared frames.
func (s *Server) mappedLive(inst *Instance) bool {
	for _, seg := range inst.ROSegs {
		if s.kern.FT.SegInUse(seg) {
			return true
		}
	}
	return inst.Table != nil && s.kern.FT.SegInUse(inst.Table)
}
