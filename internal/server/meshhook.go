package server

// This file is the server half of the federated daemon mesh
// (internal/mesh): the hook a mesh node installs with SetMesh, the
// consult-the-owner step the build paths run on a placement miss for
// remotely owned content, and the export/install plumbing that moves
// encoded store records between daemons.
//
// Division of labor: the mesh package owns the ring, the peers, the
// wire traffic, and the gossip/rebalance loops; this file owns
// everything that touches server state (the variants index, the frame
// table, the image cache).  The hook's methods perform network I/O and
// are therefore never called under cacheMu/solverMu — the call sites
// live inside singleflight build functions, which hold no server
// locks.

import (
	"fmt"

	"omos/internal/buildgraph"
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/store"
)

// MeshMeta summarizes a build's link-time invariants: what a
// metadata-only mesh reply carries, and what the requester checks its
// local variant against before trusting a local rebase to converge
// with the owner's build.
type MeshMeta struct {
	AbsPatches int
	RelPatches int
	Syms       int
	TextSize   uint64
	DataSize   uint64
}

// MeshReply is the owner's answer to a content-key fetch.
type MeshReply struct {
	// Found reports whether the owner holds the content key.
	Found bool
	// MetaOnly marks a metadata-only reply: Blob is empty and the
	// requester rebases its own variant after validating Meta.
	MetaOnly bool
	Meta     MeshMeta
	// Blob is the encoded store record of the owner's build (full
	// replies only).
	Blob []byte
}

// MeshHook is what a mesh node provides the server: ring ownership,
// owner consults, and the offer path for locally built foreign
// content.  Methods may perform network I/O; the server only calls
// them from build functions, never under its locks.
type MeshHook interface {
	// Owned reports whether this daemon is the ring owner of ckey.
	Owned(ckey string) bool
	// FetchContent consults ckey's ring owner.  haveBytes tells the
	// owner a metadata-only reply suffices (the requester holds a
	// variant to rebase).  Errors mean the owner is unreachable,
	// shedding, or faulted — the caller falls back to a local build.
	FetchContent(ckey string, textBase, dataBase uint64, haveBytes bool) (*MeshReply, error)
	// OfferContent hands the owner an encoded record this daemon just
	// built for a content key it does not own.  Best-effort: delivery
	// failures are retried by gossip.
	OfferContent(ckey string, blob []byte)
}

// SetMesh federates the server into a daemon mesh.  Must be called
// before the server sees traffic.
func (s *Server) SetMesh(h MeshHook) { s.mesh = h }

// NamespaceGen returns the namespace generation counter (bumped by
// every mutation); gossip exchanges it so fleet-wide namespace skew is
// observable.
func (s *Server) NamespaceGen() uint64 { return s.hashGen.Load() }

// mruVariant returns the most recently used rebase-capable variant of
// ckey, or nil.
func (s *Server) mruVariant(ckey string) *Instance {
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
	return src
}

// HasVariant reports whether the server holds a rebase-capable variant
// of ckey.
func (s *Server) HasVariant(ckey string) bool { return s.mruVariant(ckey) != nil }

// ContentKeys lists every content key with at least one rebase-capable
// cached variant — the digest summary gossip exchanges.
func (s *Server) ContentKeys() []string {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	out := make([]string, 0, len(s.variants))
	for ck, vs := range s.variants {
		for _, v := range vs {
			if rebaseSource(v) {
				out = append(out, ck)
				break
			}
		}
	}
	return out
}

// metaOf extracts the link-time invariants of a variant.
func metaOf(src *Instance) MeshMeta {
	r := src.Res
	return MeshMeta{
		AbsPatches: len(r.AbsPatches),
		RelPatches: len(r.RelPatches),
		Syms:       len(r.Image.Syms),
		TextSize:   r.TextSize,
		DataSize:   r.DataSize,
	}
}

// ExportContent encodes the MRU variant of ckey for a mesh peer.
// With metaOnly the blob is omitted — the invariants are the payload.
// ok is false when no rebase-capable variant is cached.  The encode
// runs without any server lock (instances are immutable once
// published).
func (s *Server) ExportContent(ckey string, metaOnly bool) (blob []byte, meta MeshMeta, ok bool) {
	src := s.mruVariant(ckey)
	if src == nil {
		return nil, MeshMeta{}, false
	}
	meta = metaOf(src)
	if metaOnly {
		return nil, meta, true
	}
	blob, err := store.Encode(s.recordOf(src))
	if err != nil {
		return nil, MeshMeta{}, false
	}
	return blob, meta, true
}

// variantMatches checks the local MRU variant of ckey against the
// owner's link-time invariants: equal patch counts, symbol count, and
// extents mean the local bytes are the same build and a local rebase
// converges with the fleet.
func (s *Server) variantMatches(ckey string, m MeshMeta) bool {
	src := s.mruVariant(ckey)
	return src != nil && metaOf(src) == m
}

// tryMeshFetch is the consult-the-owner step of a placement miss: when
// the content key's ring owner is another daemon, ask it before
// building anything locally.  A metadata-only reply validates and
// slides a local variant (the metadata-only peer rebase — the mesh's
// cheap path); a blob reply installs the owner's bytes rebased to the
// local placement.  Any failure — owner down or shedding, content
// unknown, validation or decode trouble — returns (nil, false) and the
// caller proceeds down the ordinary local path, so the mesh can only
// ever remove work, never availability.
func (s *Server) tryMeshFetch(node *buildgraph.Node, key, ckey, bkey, name string, textBase, dataBase uint64, libs []*Instance, pr placeRec, c charger) (*Instance, bool) {
	h := s.mesh
	if h == nil || s.DisableCache || ckey == "" || h.Owned(ckey) {
		return nil, false
	}
	have := s.HasVariant(ckey)
	s.stats.MeshFetches.Add(1)
	reply, err := h.FetchContent(ckey, textBase, dataBase, have)
	if err != nil || reply == nil || !reply.Found {
		s.stats.MeshFallbacks.Add(1)
		return nil, false
	}
	if reply.MetaOnly {
		// The owner confirmed the content key and sent its build's
		// invariants: validate the local variant against them, then
		// slide it locally via the rebase fast path.
		if s.variantMatches(ckey, reply.Meta) {
			if inst, ok := s.tryRebase(node, key, ckey, bkey, name, textBase, dataBase, libs, pr, c); ok {
				s.stats.MeshMetaRebases.Add(1)
				return inst, true
			}
		}
		// Divergent or unusable local variant: converge on the owner's
		// bytes instead.
		reply, err = h.FetchContent(ckey, textBase, dataBase, false)
		if err != nil || reply == nil || !reply.Found || reply.MetaOnly {
			s.stats.MeshFallbacks.Add(1)
			return nil, false
		}
	}
	inst, err := s.installFetched(node, key, ckey, bkey, name, textBase, dataBase, libs, pr, c, reply.Blob)
	if err != nil {
		s.stats.MeshFallbacks.Add(1)
		return nil, false
	}
	s.stats.MeshBlobInstalls.Add(1)
	return inst, true
}

// installFetched decodes a peer's record blob, rebases it to the local
// placement, and materializes it as a cached instance.  The content
// key's construction guarantees safety: equal ckeys imply the same
// library cache keys, which pin the same library placements — so the
// extern addresses baked into the fetched bytes are valid here too.
// Local resolution state (pins, binding key) is attached fresh; the
// peer's is ignored.
func (s *Server) installFetched(node *buildgraph.Node, key, ckey, bkey, name string, textBase, dataBase uint64, libs []*Instance, pr placeRec, c charger, blob []byte) (*Instance, error) {
	rec, err := store.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("server: mesh blob for %s: %w", name, err)
	}
	if rec.ContentKey != ckey {
		return nil, fmt.Errorf("server: mesh blob content key mismatch: want %s, got %s", ckey, rec.ContentKey)
	}
	res := resultFromRecord(rec)
	if len(res.Image.Segments) == 0 || res.SymSegs == nil {
		return nil, fmt.Errorf("server: mesh blob for %s carries no rebase metadata", name)
	}
	slid, err := link.Rebase(res, textBase, dataBase)
	if err != nil {
		return nil, fmt.Errorf("server: rebasing mesh blob for %s: %w", name, err)
	}
	node.MarkRebase()
	slid.Image.Name = name
	inst := &Instance{Key: key, ContentKey: ckey, Name: name, Res: slid, Libs: libs,
		Pins: s.pinsOf(libs), bindKey: bkey}
	for i := range slid.Image.Segments {
		seg := &slid.Image.Segments[i]
		if seg.Perm&image.PermW != 0 {
			inst.RWSegs = append(inst.RWSegs, *seg)
			continue
		}
		fs, err := s.kern.FT.MakeFrameSeg(name+"/"+seg.Name, seg.Addr, seg.Data, seg.MemSize, uint8(seg.Perm))
		if err != nil {
			for _, made := range inst.ROSegs {
				s.kern.FT.Release(made)
			}
			return nil, err
		}
		inst.ROSegs = append(inst.ROSegs, fs)
	}
	cost := uint64(slid.Rebased.Patches) * s.kern.Cost.ServerRebasePatch
	if c != nil {
		c.ChargeServer(cost)
	}
	s.stats.CacheMisses.Add(1)
	s.stats.BuildCycles.Add(cost)
	inst = s.cacheInstance(inst)
	inst.place = pr
	s.checkpointInstance(node, inst)
	return inst, nil
}

// offerMesh hands a freshly built image of remotely owned content to
// its ring owner, so the fleet converges on this one build instead of
// relinking per daemon.  No-op outside a mesh, for content this daemon
// owns, or for images that cannot serve as rebase sources.
func (s *Server) offerMesh(ckey string, inst *Instance) {
	h := s.mesh
	if h == nil || ckey == "" || h.Owned(ckey) || !rebaseSource(inst) {
		return
	}
	blob, err := store.Encode(s.recordOf(inst))
	if err != nil {
		return
	}
	h.OfferContent(ckey, blob)
}
