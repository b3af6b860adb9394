package server

import (
	"strings"

	"omos/internal/buildgraph"
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/osim"
)

// This file is the server half of the rebase fast path.  The cache
// key of an instance includes its solver placement, so the same
// library placed at a different base for a different client is a
// cache miss — but its *bytes* differ from a cached variant only at
// the recorded patch sites.  Instances therefore carry a second,
// placement-independent identity (Instance.ContentKey), and the
// variants index maps each content key to its cached placement
// variants.  A placement miss with a content hit slides the most
// recently used variant with link.Rebase — O(patch sites) instead of
// a full four-pass relink — and materializes the slid image with
// MakeFrameSegDelta so pages without a patch site stay physically
// shared with the source.

// contentKeyLib is a library's placement-independent identity:
// content hash, specialization kind (but not address preferences —
// those only steer placement), and the identities of the libraries it
// was bound against.  Library identities are full cache keys: extern
// addresses baked into the image depend on where its libraries
// landed, so variants are only interchangeable when they were linked
// against the very same library instances.
func contentKeyLib(ch, specKind string, libs []*Instance) string {
	return digestStr("librb", ch, specKind, libKeys(libs))
}

// contentKeyProg is a program's placement-independent identity: the
// construction subgraph hash plus library identities.
func contentKeyProg(subHash string, libs []*Instance) string {
	return digestStr("progrb", subHash, libKeys(libs))
}

// rebaseSource reports whether a cached instance carries everything
// link.Rebase needs: segment bytes and the per-symbol segment classes
// recorded at link time.  Instances without a content key (branch-table
// libraries) lack the metadata and are skipped.
func rebaseSource(src *Instance) bool {
	r := src.Res
	return r != nil && r.Image != nil && len(r.Image.Segments) > 0 && r.SymSegs != nil
}

// tryRebase attempts to serve a placement miss from a content hit:
// find a cached variant of ckey, slide it to the new bases, and
// materialize the result sharing clean pages with the source.
// Returns (nil, false) when no variant is usable — the caller falls
// back to the full relink.
func (s *Server) tryRebase(node *buildgraph.Node, key, ckey, bindKey, name string, textBase, dataBase uint64, libs []*Instance, pr placeRec, c charger) (*Instance, bool) {
	if s.DisableCache || ckey == "" {
		return nil, false
	}
	var src *Instance
	s.cacheMu.RLock()
	for _, v := range s.variants[ckey] {
		if !rebaseSource(v) {
			continue
		}
		if src == nil || v.lastUse.Load() > src.lastUse.Load() {
			src = v
		}
	}
	s.cacheMu.RUnlock()
	if src == nil {
		return nil, false
	}
	slid, err := link.Rebase(src.Res, textBase, dataBase)
	if err != nil {
		return nil, false
	}
	node.MarkRebase()
	inst, err := s.materializeRebased(key, ckey, bindKey, name, slid, libs, src, c)
	if err != nil {
		return nil, false
	}
	inst.place = pr
	s.checkpointInstance(node, inst)
	return inst, true
}

// materializeRebased is materialize for a slid image: read-only
// segments become frames that share every clean page with the source
// variant's frames, and the cost charged is proportional to the patch
// count, not the relocation count.
func (s *Server) materializeRebased(key, ckey, bindKey, name string, res *link.Result, libs []*Instance, src *Instance, c charger) (*Instance, error) {
	res.Image.Name = name
	inst := &Instance{Key: key, ContentKey: ckey, Name: name, Res: res, Libs: libs,
		Pins: s.pinsOf(libs), bindKey: bindKey}
	shared := 0
	for i := range res.Image.Segments {
		seg := &res.Image.Segments[i]
		if seg.Perm&image.PermW != 0 {
			inst.RWSegs = append(inst.RWSegs, *seg)
			continue
		}
		var from *osim.FrameSeg
		for _, fs := range src.ROSegs {
			if fs.Name == seg.Name || strings.HasSuffix(fs.Name, "/"+seg.Name) {
				from = fs
				break
			}
		}
		fs, nshared, err := s.kern.FT.MakeFrameSegDelta(name+"/"+seg.Name, seg.Addr, seg.Data, seg.MemSize, uint8(seg.Perm), from)
		if err != nil {
			for _, made := range inst.ROSegs {
				s.kern.FT.Release(made)
			}
			return nil, err
		}
		shared += nshared
		inst.ROSegs = append(inst.ROSegs, fs)
	}
	info := res.Rebased
	cost := uint64(info.Patches) * s.kern.Cost.ServerRebasePatch
	if c != nil {
		c.ChargeServer(cost)
	}
	s.stats.CacheMisses.Add(1)
	s.stats.Rebases.Add(1)
	s.stats.RebasePatches.Add(uint64(info.Patches))
	s.stats.RebaseDirtyPages.Add(uint64(info.TextDirtyPages + info.DataDirtyPages))
	s.stats.RebaseSharedPages.Add(uint64(shared))
	s.stats.BuildCycles.Add(cost)
	return s.cacheInstance(inst), nil
}

// cacheInstance installs a freshly materialized instance in the
// in-memory cache and the variants index.  If a racing build already
// cached the key (unreachable under singleflight, kept as a safety
// net) the prior instance wins and this build's frames are released.
func (s *Server) cacheInstance(inst *Instance) *Instance {
	if s.DisableCache {
		return inst
	}
	s.cacheMu.Lock()
	if prior, raced := s.cache[inst.Key]; raced {
		s.cacheMu.Unlock()
		s.ReleaseInstance(inst)
		return prior
	}
	s.cache[inst.Key] = inst
	if inst.ContentKey != "" {
		s.variants[inst.ContentKey] = append(s.variants[inst.ContentKey], inst)
	}
	st := s.store
	s.cacheMu.Unlock()
	s.touch(inst.Key, inst, st)
	return inst
}

// dropVariantLocked removes an evicted instance from the variants
// index.  Caller holds cacheMu.
func (s *Server) dropVariantLocked(inst *Instance) {
	if inst.ContentKey == "" {
		return
	}
	vs := s.variants[inst.ContentKey]
	for i, v := range vs {
		if v == inst {
			vs = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	if len(vs) == 0 {
		delete(s.variants, inst.ContentKey)
	} else {
		s.variants[inst.ContentKey] = vs
	}
}
