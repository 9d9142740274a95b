package core

import (
	"reflect"
	"slices"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// windowDiffCase is one corpus entry of the streaming differential tests:
// an mcDiffCases-style case plus its own window-size list. Windows are
// per-case because a windowed run re-seeds every candidate per window — the
// tiny-window geometries (1, 7) are exercised on the small fixtures where
// that is cheap, while the dataset cases cover chunk-straddling, exact-fit,
// chunk-aligned, and oversized (clamped-to-full) windows.
type windowDiffCase struct {
	name    string
	pg      *probgraph.Graph
	k       int
	theta   float64
	samples int
	seed    int64
	windows []int
}

// windowDiffCases is the corpus the windowed differential tests run over.
// The comparison is windowed-vs-full at identical options, so it needs no
// golden anchoring.
func windowDiffCases() []windowDiffCase {
	return []windowDiffCase{
		{"fig1", fixtures.Fig1(), 1, 0.35, 96, 5,
			[]int{1, 7, 16, 41, 95, 96, 196}},
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.001, 96, 1,
			[]int{1, 41, 64, 196}},
		{"dblp", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.025))), 1, 0.001, 48, 3,
			[]int{17, 48}},
	}
}

// TestGlobalNucleiWindowedDifferential: streaming the shared bank through
// fixed-size windows (MCOptions.Window) returns nuclei byte-identical to the
// full-bank run — same sets, same estimated MinProb — for every window size
// and worker count. The windowed path re-draws each window's worlds from the
// same chunk-derived PRNG streams and accumulates the same integer counts,
// so nothing may differ.
func TestGlobalNucleiWindowedDifferential(t *testing.T) {
	for _, c := range windowDiffCases() {
		// One pruning decomposition per case: every run below shares it, so
		// the re-runs pay for the windowed validation alone.
		local, err := LocalDecompose(c.pg, c.theta, Options{Mode: ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		base, err := GlobalNuclei(c.pg, c.k, c.theta,
			MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "fig1" && len(base) == 0 {
			t.Fatal("full-bank run found no nuclei; differential test is vacuous")
		}
		for _, win := range c.windows {
			for _, w := range diffWorkerCounts {
				if win == 1 && w != 1 {
					continue // single-world windows: serial comparison suffices
				}
				got, err := GlobalNuclei(c.pg, c.k, c.theta,
					MCOptions{Samples: c.samples, Seed: c.seed, Workers: w, Window: win, Local: local})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s window=%d workers=%d: global nuclei differ from full bank:\n got %+v\nwant %+v",
						c.name, win, w, got, base)
				}
			}
		}
	}
}

// TestWeaklyGlobalNucleiWindowedDifferential: same contract for w-NuDecomp —
// the unified windowed kernel at any Window reproduces the one-window run.
func TestWeaklyGlobalNucleiWindowedDifferential(t *testing.T) {
	for _, c := range windowDiffCases() {
		theta := c.theta
		if c.name == "fig1" {
			theta = 0.38
		}
		local, err := LocalDecompose(c.pg, theta, Options{Mode: ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		base, err := WeaklyGlobalNuclei(c.pg, c.k, theta,
			MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "fig1" && len(base) == 0 {
			t.Fatal("full-bank run found no nuclei; differential test is vacuous")
		}
		for _, win := range c.windows {
			for _, w := range diffWorkerCounts {
				if win == 1 && w != 1 {
					continue // single-world windows: serial comparison suffices
				}
				got, err := WeaklyGlobalNuclei(c.pg, c.k, theta,
					MCOptions{Samples: c.samples, Seed: c.seed, Workers: w, Window: win, Local: local})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s window=%d workers=%d: weak nuclei differ from full bank:\n got %+v\nwant %+v",
						c.name, win, w, got, base)
				}
			}
		}
	}
}

// TestGlobalEstimatorAliveAndPruneDifferential: the shared-aliveness scan
// must report exactly the (estimate, ok) the materialized-world predicate
// reports — every union world built as a graph and checked with
// QualifyingTriangles on the candidate's SubIndex view of the parent — for
// every candidate, and the θ-prune may only change how a failing candidate
// fails — never a verdict, never a passing estimate. This pins the
// estimator's fast paths to the reference predicate independently of the
// end-to-end golden snapshot.
func TestGlobalEstimatorAliveAndPruneDifferential(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	pool := par.NewPool(2)
	defer pool.Close()
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	const n = 64
	masks, words := mc.WorldMasksPool(pool, pg.SubgraphOfEdges(union), n, 7)
	worlds := make([]*graph.Graph, n)
	for i := range worlds {
		var es []graph.Edge
		for e, edge := range union {
			if masks[i*words+(e>>6)]&(1<<(uint(e)&63)) != 0 {
				es = append(es, edge)
			}
		}
		worlds[i] = graph.FromSortedEdges(pg.NumVertices(), es)
	}
	// Reference per-triangle qualifying-world counts, per candidate.
	var closures [][]int32
	var refCounts [][]int32
	var seen triSetDedup
	var wc decomp.WorldChecker
	for _, seedT := range cs.triangles {
		closure := cs.closure(seedT, 1)
		if !seen.insert(closure) {
			continue
		}
		closures = append(closures, slices.Clone(closure))
		ref := referenceSeed(cs.ti, pg.NumVertices(), closure)
		wc.Reset(ref.hti, ref.h)
		counts := make([]int32, ref.hti.Len())
		for _, world := range worlds {
			ids, ok := wc.QualifyingTriangles(world, ref.verts, 1)
			if !ok {
				continue
			}
			for _, id := range ids {
				counts[id]++
			}
		}
		refCounts = append(refCounts, counts)
	}
	passed, failed, pruned := 0, 0, 0
	for _, theta := range []float64{0.05, 0.3, 0.8} {
		mk := func(prune bool) *globalEstimator {
			est := newGlobalEstimator(pool, cs.ti, pg.NumVertices(), union, n, theta)
			est.prune = prune
			est.setWindow(masks, n)
			return est
		}
		scan, prune := mk(false), mk(true)
		for c, closure := range closures {
			p0, ok0 := scan.tailVerdict(refCounts[c])
			p1, ok1 := scan.estimate(closure, 1)
			if p0 != p1 || ok0 != ok1 {
				t.Errorf("θ=%v candidate %d: aliveness scan (%v,%v) != materialized-world predicate (%v,%v)",
					theta, c, p1, ok1, p0, ok0)
			}
			p2, ok2 := prune.estimate(closure, 1)
			if ok2 != ok0 {
				t.Errorf("θ=%v candidate %d: prune changed the verdict: %v != %v", theta, c, ok2, ok0)
			}
			if ok0 && p2 != p0 {
				t.Errorf("θ=%v candidate %d: prune changed a passing estimate: %v != %v", theta, c, p2, p0)
			}
			switch {
			case ok0:
				passed++
			case !ok2 && p2 == 0 && p0 != 0:
				pruned++ // failed without a scan, where the scan found a nonzero tail
				failed++
			default:
				failed++
			}
		}
	}
	if passed == 0 || failed == 0 || pruned == 0 {
		t.Fatalf("fixture vacuous: %d passed, %d failed (%d via prune)", passed, failed, pruned)
	}
	t.Logf("differential corpus: %d passed, %d failed (%d via prune)", passed, failed, pruned)
}
