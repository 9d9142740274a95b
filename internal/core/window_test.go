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
	// midStream marks a case whose θ is high enough that the g-NuDecomp
	// θ-prune drops candidates before the last window at every listed
	// window size; the global test asserts that it does.
	midStream bool
}

// windowDiffCases is the corpus the windowed differential tests run over.
// The comparison is windowed-vs-full at identical options, so it needs no
// golden anchoring.
func windowDiffCases() []windowDiffCase {
	return []windowDiffCase{
		{"fig1", fixtures.Fig1(), 1, 0.35, 96, 5,
			[]int{1, 7, 16, 41, 95, 96, 196}, false},
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.001, 96, 1,
			[]int{1, 41, 64, 196}, false},
		{"krogan-k2", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 2, 0.001, 96, 1,
			[]int{41, 64}, false},
		{"krogan-k3", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 3, 0.001, 96, 1,
			[]int{37, 196}, false},
		{"dblp", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.025))), 1, 0.001, 48, 3,
			[]int{17, 48}, false},
		{"krogan-theta0.5", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.5, 96, 1,
			[]int{16, 41}, true},
	}
}

// midStreamPrunes streams c's bank through windows of `window` worlds past
// every g-NuDecomp candidate, as globalNuclei does, and counts the
// candidates the θ-prune drops while worlds are still to come. The prune
// reads only alive-world counts, so no candidate is scanned.
func midStreamPrunes(c windowDiffCase, local *LocalResult, window int) int {
	cs := newCandidateSpace(local, c.k)
	var cands triSetDedup
	for _, seed := range cs.triangles {
		cands.insert(cs.closure(seed, c.k))
	}
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	upg := c.pg.SubgraphOfEdges(union)
	pool := par.NewPool(1)
	defer pool.Close()
	n := c.samples
	est := newGlobalEstimator(pool, cs, union, decomp.LaneIndex(nil, cs.g, union), n, c.theta)
	var bank mc.Bank
	live := make([]int32, cands.len())
	for i := range live {
		live[i] = int32(i)
	}
	dropped := 0
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, hi, c.seed)
		est.setWindow(masks, hi-lo)
		kept := live[:0]
		for _, ci := range live {
			est.seedCandidate(cands.set(ci), c.k)
			if !est.pruned(n - hi) {
				kept = append(kept, ci)
			} else if hi < n {
				dropped++
			}
		}
		live = kept
	}
	return dropped
}

// TestGlobalNucleiWindowedDifferential: streaming the shared bank through
// fixed-size windows (MCOptions.Window) returns nuclei byte-identical to the
// full-bank run — same sets, same estimated MinProb — for every window size
// and worker count. The windowed path re-draws each window's worlds from the
// same chunk-derived PRNG streams and accumulates the same integer counts,
// and drops a candidate early only once its θ-prune holds for every world
// still to come, so nothing may differ. On the case marked midStream the
// prune must drop candidates before the last window, so the remaining-worlds
// term of the prune is exercised.
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
			if c.midStream {
				if d := midStreamPrunes(c, local, win); d == 0 {
					t.Errorf("%s window=%d: the θ-prune dropped no candidate before the last window", c.name, win)
				} else {
					t.Logf("%s window=%d: %d candidates dropped before the last window", c.name, win, d)
				}
			}
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

// TestGlobalEstimatorAliveAndPruneDifferential: the estimator's lane scan
// must report exactly the (estimate, ok) the materialized-world predicate
// reports — every union world built as a graph and checked by the exact
// oracle restricted to the candidate (see refSeed.qualifying) — for
// every candidate, and the θ-prune may only fire on a candidate that
// verdict fails: whenever it fires with no world left to scan, the
// reference verdict is a failure. This pins the estimator's fast paths to
// the reference predicate independently of the end-to-end golden snapshot.
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
	masks, words := new(mc.Bank).WorldMasksWindow(pool, pg.SubgraphOfEdges(union), n, 0, n, 7)
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
	for _, seedT := range cs.triangles {
		closure := cs.closure(seedT, 1)
		if !seen.insert(closure) {
			continue
		}
		closures = append(closures, slices.Clone(closure))
		ref := referenceSeed(cs.ti, pg.NumVertices(), closure)
		counts := make([]int32, ref.hti.Len())
		for _, world := range worlds {
			ids, ok := ref.qualifying(world, 1)
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
		est := newGlobalEstimator(pool, cs, union, decomp.LaneIndex(nil, cs.g, union), n, theta)
		est.setWindow(masks, n)
		for c, closure := range closures {
			p0, ok0 := est.tailVerdict(refCounts[c])
			totals := make([]int32, est.seedCandidate(closure, 1))
			fires := est.pruned(0)
			est.scanInto(totals)
			p1, ok1 := est.tailVerdict(totals)
			if p0 != p1 || ok0 != ok1 {
				t.Errorf("θ=%v candidate %d: aliveness scan (%v,%v) != materialized-world predicate (%v,%v)",
					theta, c, p1, ok1, p0, ok0)
			}
			if fires && ok0 {
				t.Errorf("θ=%v candidate %d: prune fired on a candidate the reference passes (%v)", theta, c, p0)
			}
			switch {
			case ok0:
				passed++
			case fires && p0 != 0:
				pruned++ // the prune fails it without a scan, where the scan found a nonzero tail
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
