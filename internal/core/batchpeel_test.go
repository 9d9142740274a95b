package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"probnucleus/internal/bucket"
	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/par"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

// sequentialLocalPeel is the one-triangle-per-step ℓ-NuDecomp peel the
// level-synchronous kernel replaced, kept as its test reference. It runs
// on the calling goroutine with the kernel's incrementally-maintained
// distributions: phase 0 removes the triangles with Pr(△) < θ one at a
// time, and every peeling step pops one minimum-key triangle, removes it
// with CliqueAdj.RemoveTriangle, deconvolves each killed clique out of the
// live neighbours whose key is above the floor and re-scores them in
// ascending id order. It returns ν and the method tallies of every support
// query.
func sequentialLocalPeel(pg *probgraph.Graph, theta float64, mode Mode) ([]int, map[pbd.Method]int) {
	hyper := pbd.DefaultHyper
	pool := par.NewPool(1)
	defer pool.Close()
	ti := graph.NewTriangleIndex(pg.G, pool)
	ca := decomp.NewCliqueAdjFromIndex(ti, decomp.NewTriIncidence(ti, pg.G))
	n := ti.Len()
	counts := map[pbd.Method]int{}

	triProb := make([]float64, n)
	dists := make([]pbd.Dist, n)
	for t := 0; t < n; t++ {
		var ps []float64
		triProb[t], ps = cliqueFactors(pg, ti.Tris[t], ti.Comps[t], nil)
		dists[t].Init(ps)
	}
	score := func(t int32) (int, pbd.Method) {
		thr := theta / triProb[t]
		if mode == ModeAP {
			m := dists[t].Choose(hyper)
			if m == pbd.MethodDP {
				return dists[t].MaxK(thr), pbd.MethodDP
			}
			return dists[t].MaxKClosed(thr, m), m
		}
		return dists[t].MaxK(thr), pbd.MethodDP
	}

	nu := make([]int, n)
	drop := func(o int32, slot int) { dists[o].RemoveFactor(slot) }
	for t := int32(0); int(t) < n; t++ {
		if triProb[t] < theta {
			nu[t] = -1
			ca.RemoveTriangle(t, drop)
		}
	}
	q := bucket.New(n, maxAliveCount(ca))
	for t := int32(0); int(t) < n; t++ {
		if nu[t] != -1 {
			k, m := score(t)
			counts[m]++
			q.Push(t, k)
		}
	}
	floor := 0
	stamp := make([]int32, n)
	round := int32(0)
	var todo []int32
	for q.Len() > 0 {
		t, k, _ := q.Pop()
		if k > floor {
			floor = k
		}
		nu[t] = floor
		round++
		todo = todo[:0]
		ca.RemoveTriangle(t, func(o int32, slot int) {
			if q.Key(o) <= floor {
				return
			}
			dists[o].RemoveFactor(slot)
			if stamp[o] != round {
				stamp[o] = round
				todo = append(todo, o)
			}
		})
		slices.Sort(todo)
		for _, o := range todo {
			nk, m := score(o)
			counts[m]++
			if nk < floor {
				nk = floor
			}
			if nk < q.Key(o) {
				q.Update(o, nk)
			}
		}
	}
	return nu, counts
}

// batchPeelGraphs returns the differential corpus of the level-synchronous
// peel: the paper's fixtures, krogan and dblp at scale 0.04 and — unless
// the run is under the race detector, about ten times slower — flickr at
// 0.06 (the benchmark's local graph) and, unless the run is short too,
// every dataset at the scale of the Figure 4 benchmarks (marked large).
// Each graph is built by its subtest.
func batchPeelGraphs(t *testing.T) []namedGraph {
	fixture := func(name string, pg func() *probgraph.Graph) namedGraph {
		return namedGraph{name, pg, false}
	}
	gen := func(name string, scale float64, large bool) namedGraph {
		return namedGraph{fmt.Sprintf("%s@%g", name, scale), func() *probgraph.Graph {
			return dataset.Generate(dataset.MustLoad(name, dataset.Scale(scale)))
		}, large}
	}
	gs := []namedGraph{
		fixture("fig1", fixtures.Fig1),
		fixture("fig2a", fixtures.Fig2aNucleus),
		fixture("fig3a", fixtures.Fig3aNucleus),
		fixture("fig3b", fixtures.Fig3bNucleus),
		fixture("k5", fixtures.Fig3cK5),
		gen("krogan", 0.04, false),
		gen("dblp", 0.04, false),
	}
	if raceEnabled {
		// The smaller graphs already drive every concurrent path: batches
		// and affected sets above the parallel cutoffs.
		t.Log("race run: flickr@0.06 and the Figure 4 scales skipped")
		return gs
	}
	gs = append(gs, gen("flickr", 0.06, false))
	if testing.Short() {
		t.Log("short run: Figure 4 scales skipped")
		return gs
	}
	for _, name := range []string{"krogan", "dblp", "flickr", "pokec", "biomine", "ljournal"} {
		scale := 0.15
		if name == "pokec" || name == "biomine" || name == "ljournal" {
			scale = 0.08 // the Figure 4 benchmarks' scales (bench_test.go)
		}
		gs = append(gs, gen(name, scale, true))
	}
	return gs
}

type namedGraph struct {
	name  string
	gen   func() *probgraph.Graph
	large bool
}

// TestBatchPeelMatchesSequential: the level-synchronous peel gives every
// triangle the ν the one-triangle-per-step reference gives it, byte for
// byte, in DP mode — where κ is a function of the live clique set alone
// and monotone under removal, so the order within a level cannot matter —
// and, with its batches of one, in AP mode together with identical method
// tallies, at 1, 2 and 8 workers. On the large graphs AP runs at the two
// thresholds where whole-level AP batches were seen to change ν (θ = 0.001
// on flickr, dblp, biomine and ljournal, θ = 0.2 on pokec). The graphs run
// as parallel subtests.
func TestBatchPeelMatchesSequential(t *testing.T) {
	for _, g := range batchPeelGraphs(t) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			pg := g.gen()
			for _, mode := range []Mode{ModeDP, ModeAP} {
				thetas := []float64{0.001, 0.1, 0.2, 0.3, 0.4, 0.57}
				if mode == ModeAP && g.large {
					thetas = []float64{0.001, 0.2}
				}
				for _, theta := range thetas {
					wantNu, wantCounts := sequentialLocalPeel(pg, theta, mode)
					for _, w := range diffWorkerCounts {
						counts := map[pbd.Method]int{}
						res, err := LocalDecompose(pg, theta, Options{Mode: mode, Workers: w, MethodCounts: counts})
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(res.Nucleusness, wantNu) {
							t.Errorf("mode=%v θ=%v workers=%d: ν differs from the sequential peel", mode, theta, w)
						}
						if mode == ModeAP && !maps.Equal(counts, wantCounts) {
							t.Errorf("AP θ=%v workers=%d: method counts %v, sequential peel %v", theta, w, counts, wantCounts)
						}
					}
				}
			}
		})
	}
}
