package core

import (
	"slices"
	"sync"

	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/probgraph"
)

// A candidate plan is the part of a g- or w-NuDecomp call that depends only
// on the pruning local result and the level k: the candidates, the union of
// their edges the shared worlds are drawn over, and the tables the worlds
// are checked through — for g-NuDecomp the union tables every world-check
// seed is cut from, for w-NuDecomp every candidate's peel seed itself. The
// first call at (result, k) builds it and publishes it on the result; every
// later call, whatever its seed, sample count, window, memory budget or
// worker count, runs from the same plan. A plan is read-only once
// published, so calls on any number of shards share it.

// globalPlan is the candidate plan of Algorithm 2: the distinct 4-clique
// closures grown inside C, in the order first grown, the union subgraph,
// and the union tables.
type globalPlan struct {
	// cands holds the closures (sorted root triangle ids); only its arena is
	// kept, the hash index it was deduplicated with is dropped.
	cands triSetDedup
	upg   *probgraph.Graph
	wu    *decomp.WorldCheckUnion
}

// newGlobalPlan enumerates the candidates of local at level k and builds
// their union tables. stop is as for candidateSpace.candidates, and its
// error is returned with no plan. The candidate space's closure scratch and
// clique layout, and the root edge → union lane table the union tables are
// cut through, live only as long as the build.
func newGlobalPlan(local *LocalResult, k int, stop func() error) (*globalPlan, error) {
	cs := newCandidateSpace(local, k)
	p := new(globalPlan)
	if len(cs.triangles) == 0 {
		return p, nil
	}
	cands, err := cs.candidates(k, stop)
	if err != nil {
		return nil, err
	}
	p.cands = triSetDedup{offs: slices.Clone(cands.offs), flat: slices.Clone(cands.flat)}
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	p.upg = local.PG.SubgraphOfEdges(union)
	p.wu = decomp.NewWorldCheckUnion(cs.ti, cs.inc, cs.triangles, union, decomp.LaneIndex(nil, cs.g, union))
	return p, nil
}

// weakPlan is the candidate plan of Algorithm 3: the triangle ids of every
// ℓ-(k,θ)-nucleus, the canonical union of their edges, the union subgraph,
// and every candidate's peel seed, cut once from the root incidence.
type weakPlan struct {
	tris  [][]int32
	union []graph.Edge
	upg   *probgraph.Graph
	// seeds[c] is candidate c's peel seed (a decomp.WorldPeelSeed clone,
	// with none of the root-indexed cut scratch), and tview[c][j] the view
	// id of its triangle tris[c][j].
	seeds []decomp.WorldPeelSeed
	tview [][]int32
	// lossOff lays the candidates' per-view-triangle loss totals out in one
	// arena: candidate c's are [lossOff[c], lossOff[c+1]). maxView is the
	// largest candidate's view triangle count.
	lossOff []int32
	maxView int
}

// newWeakPlan takes the ℓ-(k,θ)-nuclei of local as the candidates and cuts
// every candidate's peel seed, through the root edge → union lane table of
// their edge union, which lives only as long as the build. stop (nil never
// stops) is checked at every candidate; its error is returned with no plan.
func newWeakPlan(local *LocalResult, k int, stop func() error) (*weakPlan, error) {
	cands := local.NucleiForK(k)
	p := &weakPlan{tris: make([][]int32, len(cands))}
	for i := range cands {
		p.tris[i] = cands[i].TriIDs
	}
	if len(cands) == 0 {
		return p, nil
	}
	p.union = unionEdges(cands)
	p.upg = local.PG.SubgraphOfEdges(p.union)
	laneOf := decomp.LaneIndex(nil, local.PG.G, p.union)
	inc := local.incidence()
	p.seeds = make([]decomp.WorldPeelSeed, len(cands))
	p.tview = make([][]int32, len(cands))
	p.lossOff = make([]int32, len(cands)+1)
	var cut decomp.WorldPeelSeed
	for c, tris := range p.tris {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		cut.Seed(local.TI, inc, tris, laneOf, k)
		p.seeds[c] = cut.Clone()
		// Every triangle of the nucleus lies in the view, since the
		// candidate spans its own triangles' edges.
		p.tview[c] = make([]int32, len(tris))
		for j, t := range tris {
			p.tview[c][j] = cut.ViewID(t)
		}
		p.lossOff[c+1] = p.lossOff[c] + int32(cut.Len())
		p.maxView = max(p.maxView, cut.Len())
	}
	return p, nil
}

// plans publishes one plan per level k. The zero value is empty and ready.
type plans[P any] struct{ m sync.Map }

// get returns the plan published at k, building one with build when there
// is none. Concurrent first callers may each build one, but the first to
// publish wins and all of them return it; a build that fails publishes
// nothing, so the next call builds again.
func (ps *plans[P]) get(k int, build func() (*P, error)) (*P, error) {
	if p, ok := ps.m.Load(k); ok {
		return p.(*P), nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	won, _ := ps.m.LoadOrStore(k, p)
	return won.(*P), nil
}

// globalPlan returns the result's g-NuDecomp candidate plan at level k; a
// build that stop ends publishes nothing.
func (r *LocalResult) globalPlan(k int, stop func() error) (*globalPlan, error) {
	return r.globalPlans.get(k, func() (*globalPlan, error) { return newGlobalPlan(r, k, stop) })
}

// weakPlan returns the result's w-NuDecomp candidate plan at level k; a
// build that stop ends publishes nothing.
func (r *LocalResult) weakPlan(k int, stop func() error) (*weakPlan, error) {
	return r.weakPlans.get(k, func() (*weakPlan, error) { return newWeakPlan(r, k, stop) })
}
