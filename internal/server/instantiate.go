package server

import (
	"context"
	"fmt"
	"strings"

	"omos/internal/asm"
	"omos/internal/blueprint"
	"omos/internal/buildgraph"
	"omos/internal/constraint"
	"omos/internal/fault"
	"omos/internal/image"
	"omos/internal/link"
	"omos/internal/mgraph"
	"omos/internal/obj"
	"omos/internal/osim"
)

// Default client placement (matches the paper's Figure 1 defaults:
// clients at low text addresses, data high).
const (
	DefaultClientText = uint64(0x0010_0000)
	DefaultClientData = uint64(0x4000_0000)
)

func asmCompile(text string) (*obj.Object, error) {
	return asm.Assemble("source.s", text)
}

// Instantiate returns the (possibly cached) instance of the named
// program meta-object.  If p is non-nil, server-side lookup costs are
// charged to it; image construction costs are charged to the first
// requester only — later requests hit the cache, which is the paper's
// central performance mechanism.
func (s *Server) Instantiate(name string, p *osim.Process) (*Instance, error) {
	return s.InstantiateCtx(context.Background(), name, p)
}

// InstantiateCtx is Instantiate under a context: cancellation and
// deadlines propagate through the library fan-out and into the
// singleflight layer, where a canceled waiter detaches without
// disturbing the build it was sharing.  Every call records one
// build-graph run: the requested image is the root node and each
// library dependency branch a child node (graph.go).
func (s *Server) InstantiateCtx(ctx context.Context, name string, p *osim.Process) (*Instance, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The admission gate wraps only this public entry point; nested
	// library instantiations run under the caller's admission.
	release, err := s.admit.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	c := evalCtx{s: s}
	meta, err := c.LookupMeta(name)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, fmt.Errorf("server: %s is not a meta-object", name)
	}
	// Canary placement (upgrade.go): during an upgrade epoch a
	// deterministic fraction of top-level instantiations joins the v2
	// cohort — their evaluations see the staged definitions, and their
	// outcomes feed the health gate.
	cohort := s.canaryPick(name, meta)
	if cohort {
		ctx = withCanary(ctx)
		c = evalCtx{s: s, v2: true}
		s.stats.CanaryInstantiations.Add(1)
		if m2, err2 := c.LookupMeta(name); err2 == nil && m2 != nil {
			meta = m2
		}
	}
	kind := buildgraph.KindProgram
	if meta.IsLibrary {
		kind = buildgraph.KindLibrary
	}
	run, root := s.beginRun(name, kind)
	root.Start()
	ctx = buildgraph.WithNode(ctx, root)
	ch := withNode(asCharger(p), root)
	var inst *Instance
	if meta.IsLibrary {
		inst, err = s.instantiateLibrary(ctx, mgraph.LibDep{Path: name, Spec: meta.DefaultSpec}, ch)
	} else {
		inst, err = s.instantiateProgram(ctx, name, meta, ch)
	}
	s.finishNode(root, inst, err)
	run.End(err)
	// Feed the health gate: the server-wide failure baseline always,
	// the canary cohort's verdict during an epoch.  A regression here
	// triggers the automatic rollback (synchronously, so the caller
	// that tripped the gate observes the post-rollback namespace).
	s.observeInstantiation(cohort, err)
	return inst, err
}

// InstantiateBlueprint evaluates an anonymous blueprint (§5: "the
// meta-object specification may ... be an arbitrary blueprint").  The
// result is cached under the blueprint's content hash like any named
// instantiation.
func (s *Server) InstantiateBlueprint(src string, p *osim.Process) (*Instance, error) {
	release, err := s.admit.Acquire(context.Background())
	if err != nil {
		return nil, err
	}
	defer release()
	expr, err := blueprint.Parse(src)
	if err != nil {
		return nil, err
	}
	root, err := mgraph.Build(expr)
	if err != nil {
		return nil, err
	}
	meta := &mgraph.Meta{Path: "(anonymous)", Root: root, SrcHash: digestStr(src)}
	name := "(anonymous:" + meta.SrcHash + ")"
	run, rootNode := s.beginRun(name, buildgraph.KindProgram)
	rootNode.Start()
	ctx := buildgraph.WithNode(context.Background(), rootNode)
	inst, err := s.instantiateProgram(ctx, name, meta, withNode(asCharger(p), rootNode))
	s.finishNode(rootNode, inst, err)
	run.End(err)
	return inst, err
}

func (s *Server) chargeLookup(c charger) {
	if c != nil {
		c.ChargeServer(s.kern.Cost.ServerCacheLookup)
	}
}

// buildCost estimates the server cycles spent constructing an image.
func (s *Server) buildCost(res *link.Result) uint64 {
	cost := uint64(res.NumRelocs) * s.kern.Cost.ServerBuildReloc
	for _, pl := range res.Placements {
		cost += uint64(pl.Obj.RecordCount()) * s.kern.Cost.ServerBuildRecord
	}
	return cost
}

// evalValue evaluates a meta-object root and resolves its library
// dependencies into instances (deduplicated by path+spec).  Distinct
// dependencies build concurrently on the worker pool; the join is in
// dependency order, so downstream consumers (externsOf, libKeys) see
// exactly the serial ordering.
func (s *Server) evalValue(ctx context.Context, meta *mgraph.Meta, c charger) (*mgraph.Value, []*Instance, error) {
	if err := s.faults.Fire(fault.SiteBuildEval); err != nil {
		return nil, nil, fmt.Errorf("server: evaluating %s: %w", meta.Path, err)
	}
	v, err := meta.Root.Eval(s.ectx(ctx))
	if err != nil {
		return nil, nil, fmt.Errorf("server: evaluating %s: %w", meta.Path, err)
	}
	insts, err := s.instantiateDeps(ctx, v.Libs, c)
	if err != nil {
		return nil, nil, err
	}
	return v, insts, nil
}

// externsOf unions the exported symbols of library instances (first
// definition wins, matching link search order).  The main build paths
// resolve through the stable resolution cache instead (resolve.go);
// this remains the branch-table path's resolver, where the slot
// symbols make the undefined set an unreliable guide.
func externsOf(libs []*Instance) map[string]uint64 {
	ext := map[string]uint64{}
	for _, li := range libs {
		for name, addr := range li.Res.Image.Syms {
			if _, dup := ext[name]; !dup {
				ext[name] = addr
			}
		}
	}
	return ext
}

// place runs a constraint-solver request under the solver lock.
func (s *Server) place(req constraint.Request) (constraint.Placement, error) {
	s.solverMu.Lock()
	defer s.solverMu.Unlock()
	return s.solver.Place(req)
}

func (s *Server) instantiateLibrary(ctx context.Context, dep mgraph.LibDep, c charger) (*Instance, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cx := s.ectx(ctx)
	meta, err := cx.LookupMeta(dep.Path)
	if err != nil {
		return nil, err
	}
	if meta == nil || !meta.IsLibrary {
		return nil, fmt.Errorf("server: %s is not a library meta-object", dep.Path)
	}
	ch, err := cx.ContentHash(dep.Path)
	if err != nil {
		return nil, err
	}
	s.chargeLookup(c)

	v, libs, err := s.evalValue(ctx, meta, c)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("server: library %s produced no fragments", dep.Path)
	}
	prefs := dep.Spec.Prefs
	if len(prefs) == 0 {
		prefs = meta.DefaultSpec.Prefs
	}
	if dep.Spec.Kind == "lib-branch-table" {
		return s.buildBranchTableLib(ctx, dep, v, libs, prefs, ch, c)
	}
	textSize, dataSize := link.Measure(v.Module)
	pl, err := s.place(constraint.Request{
		Key:      "lib:" + dep.Path + "|" + dep.Spec.Hash(),
		TextSize: textSize,
		DataSize: dataSize,
		Prefs:    prefs,
	})
	if err != nil {
		return nil, err
	}
	key := digestStr("lib", ch, dep.Spec.Hash(),
		fmt.Sprintf("%#x/%#x", pl.TextBase, pl.DataBase), libKeys(libs))
	ckey := contentKeyLib(ch, dep.Spec.Kind, libs)
	bkey := bindKeyLib(dep, meta)
	pr := placeRec{
		SolverKey: "lib:" + dep.Path + "|" + dep.Spec.Hash(),
		TextBase:  pl.TextBase, TextSize: textSize,
		DataBase: pl.DataBase, DataSize: dataSize,
	}
	node := buildgraph.NodeFrom(ctx)
	node.SetKeys(key, ckey)
	return s.buildShared(ctx, key, func() (*Instance, error) {
		// Cache miss: in a mesh, content another daemon owns is asked
		// for before anything is built locally (meshhook.go).
		if inst, ok := s.tryMeshFetch(node, key, ckey, bkey, dep.Path, pl.TextBase, pl.DataBase, libs, pr, c); ok {
			return inst, nil
		}
		// Placement miss: a cached variant of the same content at other
		// bases can be slid here instead of relinked (rebase.go).
		if inst, ok := s.tryRebase(node, key, ckey, bkey, dep.Path, pl.TextBase, pl.DataBase, libs, pr, c); ok {
			return inst, nil
		}
		s.stats.RebaseMiss.Add(1)
		if canaryFrom(ctx) {
			if err := s.faults.Fire(fault.SiteUpgradeCanary); err != nil {
				return nil, fmt.Errorf("server: canary build of library %s: %w", dep.Path, err)
			}
		}
		if err := s.faults.Fire(fault.SiteBuildLink); err != nil {
			return nil, fmt.Errorf("server: linking library %s: %w", dep.Path, err)
		}
		node.MarkLink()
		res, err := link.Link(v.Module, link.Options{
			Name:     "lib:" + dep.Path,
			TextBase: pl.TextBase,
			DataBase: pl.DataBase,
			Externs:  s.resolveExterns(dep.Path, bkey, v, libs, c),
		})
		if err != nil {
			return nil, fmt.Errorf("server: linking library %s: %w", dep.Path, err)
		}
		inst, err := s.materialize(key, ckey, bkey, dep.Path, res, libs, c)
		if err != nil {
			return nil, err
		}
		inst.place = pr
		s.checkpointInstance(node, inst)
		s.offerMesh(ckey, inst)
		return inst, nil
	})
}

func (s *Server) instantiateProgram(ctx context.Context, name string, meta *mgraph.Meta, c charger) (*Instance, error) {
	s.chargeLookup(c)
	subHash, err := meta.Root.Hash(s.ectx(ctx))
	if err != nil {
		return nil, err
	}
	v, libs, err := s.evalValue(ctx, meta, c)
	if err != nil {
		return nil, err
	}
	if v.Module == nil {
		return nil, fmt.Errorf("server: program %s produced no fragments", name)
	}
	prefs := v.Prefs
	if len(prefs) == 0 {
		// A leading (constraint-list ...) in the program's blueprint
		// gives default preferences, like a library's (Figure 1).  It is
		// not part of the construction subgraph, so programs differing
		// only in placement share a content key and can rebase.
		prefs = meta.DefaultSpec.Prefs
	}
	if len(prefs) == 0 {
		prefs = []constraint.Pref{
			{Seg: 'T', Addr: DefaultClientText},
			{Seg: 'D', Addr: DefaultClientData},
		}
	}
	textSize, dataSize := link.Measure(v.Module)
	pl, err := s.place(constraint.Request{
		Key:      "prog:" + name,
		TextSize: textSize,
		DataSize: dataSize,
		Prefs:    prefs,
	})
	if err != nil {
		return nil, err
	}
	key := digestStr("prog", meta.SrcHash, subHash,
		fmt.Sprintf("%#x/%#x", pl.TextBase, pl.DataBase), libKeys(libs))
	ckey := contentKeyProg(subHash, libs)
	bkey := bindKeyProg(meta)
	pr := placeRec{
		SolverKey: "prog:" + name,
		TextBase:  pl.TextBase, TextSize: textSize,
		DataBase: pl.DataBase, DataSize: dataSize,
	}
	node := buildgraph.NodeFrom(ctx)
	node.SetKeys(key, ckey)
	return s.buildShared(ctx, key, func() (*Instance, error) {
		if inst, ok := s.tryMeshFetch(node, key, ckey, bkey, name, pl.TextBase, pl.DataBase, libs, pr, c); ok {
			return inst, nil
		}
		if inst, ok := s.tryRebase(node, key, ckey, bkey, name, pl.TextBase, pl.DataBase, libs, pr, c); ok {
			return inst, nil
		}
		s.stats.RebaseMiss.Add(1)
		if canaryFrom(ctx) {
			if err := s.faults.Fire(fault.SiteUpgradeCanary); err != nil {
				return nil, fmt.Errorf("server: canary build of %s: %w", name, err)
			}
		}
		if err := s.faults.Fire(fault.SiteBuildLink); err != nil {
			return nil, fmt.Errorf("server: linking %s: %w", name, err)
		}
		node.MarkLink()
		res, err := link.Link(v.Module, link.Options{
			Name:     name,
			TextBase: pl.TextBase,
			DataBase: pl.DataBase,
			Entry:    "_start",
			Externs:  s.resolveExterns(name, bkey, v, libs, c),
		})
		if err != nil {
			return nil, fmt.Errorf("server: linking %s: %w", name, err)
		}
		inst, err := s.materialize(key, ckey, bkey, name, res, libs, c)
		if err != nil {
			return nil, err
		}
		inst.place = pr
		s.checkpointInstance(node, inst)
		s.offerMesh(ckey, inst)
		return inst, nil
	})
}

func libKeys(libs []*Instance) string {
	out := ""
	for _, li := range libs {
		out += li.Key + ";"
	}
	return out
}

// ReleaseInstance drops the frames materialized for an instance (and
// its table).  Only needed when the server runs with DisableCache;
// cached instances are owned by the cache and released via Evict.
func (s *Server) ReleaseInstance(inst *Instance) {
	for _, seg := range inst.ROSegs {
		s.kern.FT.Release(seg)
	}
	if inst.Table != nil {
		s.kern.FT.Release(inst.Table)
	}
}

// materialize turns a link result into a cached Instance: read-only
// segments become shared frames, writable segments stay as pristine
// bytes for per-client copying.  Build cost is charged to the
// requesting process (the only one that ever pays it).  ckey is the
// placement-independent content identity registered in the variants
// index (empty to keep the instance out of the rebase path); bindKey
// the resolution identity the binding table lives under (empty for
// images whose resolution is not cached).  Library pins are attached
// here — before publication, so concurrent cache hits never observe a
// partially pinned instance.
func (s *Server) materialize(key, ckey, bindKey, name string, res *link.Result, libs []*Instance, c charger) (*Instance, error) {
	inst := &Instance{Key: key, ContentKey: ckey, Name: name, Res: res, Libs: libs,
		Pins: s.pinsOf(libs), bindKey: bindKey}
	for i := range res.Image.Segments {
		seg := &res.Image.Segments[i]
		if seg.Perm&image.PermW != 0 {
			inst.RWSegs = append(inst.RWSegs, *seg)
			continue
		}
		fs, err := s.kern.FT.MakeFrameSeg(name+"/"+seg.Name, seg.Addr, seg.Data, seg.MemSize, uint8(seg.Perm))
		if err != nil {
			return nil, err
		}
		inst.ROSegs = append(inst.ROSegs, fs)
	}
	cost := s.buildCost(res)
	if c != nil {
		c.ChargeServer(cost)
	}
	s.stats.CacheMisses.Add(1)
	s.stats.ImagesBuilt.Add(1)
	s.stats.BuiltBytes.Add(res.TextSize + res.DataSize + res.BSSSize)
	s.stats.RelocsApplied.Add(uint64(res.NumRelocs))
	s.stats.ExternBinds.Add(uint64(res.ExternBinds))
	s.stats.BuildCycles.Add(cost)
	return s.cacheInstance(inst), nil
}

// Evict removes every cached instance derived from the named
// meta-object — and, transitively, every cached instance that links
// against one — and releases their address-space placements, forcing
// the next instantiation to rebuild.  This is the module-unlinking ability
// the paper notes dld has and OMOS could add (§9): the server retains
// all the information needed to reconstruct, so eviction is safe at
// any time — processes already running keep their mapped frames alive
// through the frame refcounts.
func (s *Server) Evict(name string) int {
	name = cleanPath(name)
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	victims := map[string]bool{}
	for key, inst := range s.cache {
		if inst.Name == name || inst.Name == "lib:"+name {
			victims[key] = true
		}
	}
	// Close over dependents: a cached image linking against a victim
	// would keep mapping the released frames (the capacity evictor
	// refuses such victims for exactly this reason) — explicit
	// eviction instead takes the dependents along, so they rebuild
	// against whatever the namespace says next.
	for changed := true; changed; {
		changed = false
		for key, inst := range s.cache {
			if victims[key] {
				continue
			}
			for _, li := range inst.Libs {
				if victims[li.Key] {
					victims[key] = true
					changed = true
					break
				}
			}
		}
	}
	evicted := 0
	for key := range victims {
		s.evictEntryLocked(s.cache[key])
		if s.store != nil {
			s.store.Delete(key)
		}
		evicted++
	}
	s.solverMu.Lock()
	s.solver.Release("prog:" + name)
	for _, k := range s.solver.Keys() {
		if strings.HasPrefix(k, "lib:"+name+"|") {
			s.solver.Release(k)
		}
	}
	s.solverMu.Unlock()
	return evicted
}

// evictEntryLocked drops one cached instance from the in-memory
// tier: its shared frames (and export table) are released and the
// cache entry removed.  Frames a running process maps stay alive
// through the process's own references.  The main solver placement is
// deliberately kept so a rebuild lands at the same addresses.  Caller
// holds cacheMu.
func (s *Server) evictEntryLocked(inst *Instance) {
	for _, seg := range inst.ROSegs {
		s.kern.FT.Release(seg)
	}
	if inst.Table != nil {
		s.kern.FT.Release(inst.Table)
		s.solverMu.Lock()
		s.solver.Release("table:" + inst.Key)
		s.solverMu.Unlock()
	}
	s.dropVariantLocked(inst)
	delete(s.cache, inst.Key)
}

// MapInstance maps the instance and all its libraries into a process,
// charging server-side mapping costs (this is the vm_map work of §5).
// Library images that are already mapped (shared text pages) are
// detected via the page table and skipped.
func (s *Server) MapInstance(p *osim.Process, inst *Instance) error {
	// Hijack defense: a pinned image only maps while its library
	// identities still match what it was linked against.  A violation
	// (or an injected definer swap at the namespace.hijack site)
	// rejects and quarantines the image; the caller's retry rebuilds
	// and re-pins from source.
	if err := s.verifyPinned(inst); err != nil {
		return err
	}
	mapped := map[string]bool{}
	var mapOne func(in *Instance) error
	mapOne = func(in *Instance) error {
		if mapped[in.Key] {
			return nil
		}
		mapped[in.Key] = true
		for _, li := range in.Libs {
			if err := mapOne(li); err != nil {
				return err
			}
		}
		if err := p.MapSharedSegs(in.ROSegs, true); err != nil {
			return err
		}
		if in.Table != nil {
			if err := p.MapSharedSegs([]*osim.FrameSeg{in.Table}, true); err != nil {
				return err
			}
		}
		for i := range in.RWSegs {
			seg := &in.RWSegs[i]
			if err := p.MapPrivateBytes(seg.Addr, seg.Data, seg.MemSize, seg.Perm, true); err != nil {
				return err
			}
		}
		return nil
	}
	if err := mapOne(inst); err != nil {
		return err
	}
	// Branch-table libraries (§4.1) get their upward slots bound to
	// this client's procedures, in this process only.
	return s.patchBranchTables(p, inst)
}

// Entry returns the instance's entry point.
func (inst *Instance) Entry() uint64 { return inst.Res.Image.Entry }

// SymbolAt resolves an address back to the nearest containing
// exported symbol in the instance or its libraries — the seed of the
// gdb integration §4.1 plans ("enhance gdb to interface directly with
// OMOS").  Returns the symbol name, the offset into it, and the image
// that owns it.
func (inst *Instance) SymbolAt(addr uint64) (name string, off uint64, owner string, ok bool) {
	best := uint64(0)
	for sym, a := range inst.Res.Image.Syms {
		size := inst.Res.SymSizes[sym]
		if size == 0 {
			size = 1
		}
		if addr >= a && addr < a+size && (name == "" || a > best) {
			name, off, owner, ok = sym, addr-a, inst.Name, true
			best = a
		}
	}
	for _, li := range inst.Libs {
		if n, o, own, found := li.SymbolAt(addr); found {
			return n, o, own, true
		}
	}
	return name, off, owner, ok
}

// Lookup returns the bound address of an exported symbol in the
// instance or any of its libraries.
func (inst *Instance) Lookup(name string) (uint64, bool) {
	if a, ok := inst.Res.Image.Syms[name]; ok {
		return a, true
	}
	for _, li := range inst.Libs {
		if a, ok := li.Lookup(name); ok {
			return a, true
		}
	}
	return 0, false
}
