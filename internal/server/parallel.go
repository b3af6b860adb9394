package server

import (
	"context"
	"fmt"
	"sync/atomic"

	"omos/internal/buildgraph"
	"omos/internal/mgraph"
	"omos/internal/osim"
)

// This file implements the concurrent instantiation pipeline: one
// instantiation fans its distinct library dependencies out across the
// build graph's bounded worker pool (buildgraph.Executor), joining
// the results in dependency order so cache keys, externsOf's
// first-definition-wins semantics, and symbol tables come out exactly
// as a serial build would produce them.  Each dependency branch is
// one build-graph node; the singleflight layer (singleflight.go)
// still guarantees overlapping subtrees across concurrent requests
// are each built exactly once.

// DefaultBuildWorkers is the default bound on concurrent library
// builds per server.  It is a fixed constant rather than GOMAXPROCS so
// the simulated cost accounting (and thus the benchmark tables) is
// identical on every machine.
const DefaultBuildWorkers = 4

// SetBuildWorkers bounds the dependency fan-out to n concurrent
// builds; n <= 1 restores the fully serial pipeline (used by the
// contention-ablation benchmark and the deterministic crash-resume
// tests).  Not safe to call while instantiations are in flight.
func (s *Server) SetBuildWorkers(n int) { s.exec.SetWorkers(n) }

// BuildWorkers returns the current fan-out bound.
func (s *Server) BuildWorkers() int { return s.exec.Workers() }

// charger receives simulated server cycles.  *osim.Process implements
// it; the parallel fan-out substitutes a clockTally per branch so each
// branch's cost is known at the join.
type charger interface {
	ChargeServer(n uint64)
}

// asCharger converts a possibly-nil process into a possibly-nil
// charger (a nil *osim.Process inside a non-nil interface would defeat
// the nil checks downstream).
func asCharger(p *osim.Process) charger {
	if p == nil {
		return nil
	}
	return p
}

// clockTally accumulates one fan-out branch's server cycles.
type clockTally struct {
	cycles atomic.Uint64
}

// ChargeServer implements charger.
func (t *clockTally) ChargeServer(n uint64) { t.cycles.Add(n) }

// nodeCharger tees a branch's cycles into its build-graph node, so
// the per-node event stream carries cost units without disturbing the
// requester accounting.
type nodeCharger struct {
	c    charger
	node *buildgraph.Node
}

// ChargeServer implements charger.
func (nc nodeCharger) ChargeServer(n uint64) {
	if nc.c != nil {
		nc.c.ChargeServer(n)
	}
	nc.node.AddCost(n)
}

// withNode wraps a charger so the node (when recorded) accrues every
// cycle charged under it.
func withNode(c charger, node *buildgraph.Node) charger {
	if node == nil {
		return c
	}
	return nodeCharger{c: c, node: node}
}

// instantiateDeps resolves library dependencies (deduplicated by
// path+spec, order preserved) into instances, building distinct
// dependencies concurrently when the worker pool allows.
//
// Cost model: a branch's cycles are accumulated on a private tally and
// the requester is charged the makespan of running the branches on
// buildWorkers workers — max(longest branch, ceil(total/workers)) —
// instead of their sum.  That is the point of the pipeline: a
// four-library cold build costs the requester roughly the longest
// library link, not the sum of all four.  Stats.BuildCycles still
// accumulates the full sum (the server really did that work).
func (s *Server) instantiateDeps(ctx context.Context, deps []mgraph.LibDep, c charger) ([]*Instance, error) {
	seen := map[string]bool{}
	distinct := deps[:0:0]
	for _, dep := range deps {
		id := dep.Path + "|" + dep.Spec.Hash()
		if seen[id] {
			continue
		}
		seen[id] = true
		distinct = append(distinct, dep)
	}
	if len(distinct) == 0 {
		return nil, nil
	}
	workers := s.exec.Workers()
	if len(distinct) == 1 || workers <= 1 {
		var insts []*Instance
		for _, dep := range distinct {
			inst, err := s.buildDep(ctx, dep, c)
			if err != nil {
				return nil, err
			}
			insts = append(insts, inst)
		}
		return insts, nil
	}

	insts := make([]*Instance, len(distinct))
	errs := make([]error, len(distinct))
	tallies := make([]clockTally, len(distinct))
	tasks := make([]func(), len(distinct))
	for i := range distinct {
		i := i
		tasks[i] = func() {
			insts[i], errs[i] = s.buildDep(ctx, distinct[i], &tallies[i])
		}
	}
	s.exec.Run(tasks)

	// Deterministic join: results in dependency order, first error (by
	// dependency order) wins regardless of which branch failed first
	// in wall-clock time.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if c != nil {
		var sum, longest uint64
		for i := range tallies {
			cy := tallies[i].cycles.Load()
			sum += cy
			if cy > longest {
				longest = cy
			}
		}
		charged := (sum + uint64(workers) - 1) / uint64(workers)
		if charged < longest {
			charged = longest
		}
		c.ChargeServer(charged)
	}
	return insts, nil
}

// buildDep builds one library dependency as one build-graph node,
// with panic isolation: a panic anywhere in the branch (evaluation,
// specialization, injected faults) fails this dependency — and
// therefore this request — but never the worker goroutine it happens
// to be running on.  The singleflight leader has its own recovery;
// this guards the stages that run before a flight exists.
func (s *Server) buildDep(ctx context.Context, dep mgraph.LibDep, c charger) (inst *Instance, err error) {
	kind := buildgraph.KindLibrary
	if dep.Spec.Kind == "lib-branch-table" {
		kind = buildgraph.KindBranchTable
	}
	node := buildgraph.NodeFrom(ctx).Child(dep.Path, kind)
	defer func() {
		if r := recover(); r != nil {
			s.stats.Recovered.Add(1)
			inst = nil
			err = fmt.Errorf("server: building %s: recovered panic: %v", dep.Path, r)
		}
		s.finishNode(node, inst, err)
	}()
	node.Start()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if node != nil {
		ctx = buildgraph.WithNode(ctx, node)
		c = withNode(c, node)
	}
	// Scheduling a node has a small fixed cost (queue + join
	// bookkeeping), charged to the requester like the lookup is.
	if c != nil {
		c.ChargeServer(s.kern.Cost.ServerNodeSchedule)
	}
	return s.instantiateLibrary(ctx, dep, c)
}
