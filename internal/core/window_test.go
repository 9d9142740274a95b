package core

import (
	"reflect"
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
	// window size; the global test asserts that it does. earlyPrune marks
	// one where, at every listed window size, the prune fires on a closure
	// before its seed is cut both on the first window and on a later one.
	midStream, earlyPrune bool
	// local0, when positive, is the lower θ₀ the pruning local
	// decomposition runs at (a NucleiRequest may bring a Local at θ₀ ≤ θ):
	// its wider candidate space holds triangles rare enough for the
	// θ-prune to drop on the first window.
	local0 float64
}

// localTheta returns the θ the pruning local decomposition of c runs at
// for a request at theta.
func (c windowDiffCase) localTheta(theta float64) float64 {
	if c.local0 > 0 {
		return c.local0
	}
	return theta
}

// windowDiffCases is the corpus the windowed differential tests run over.
// The comparison is windowed-vs-full at identical options, so it needs no
// golden anchoring.
func windowDiffCases() []windowDiffCase {
	return []windowDiffCase{
		{"fig1", fixtures.Fig1(), 1, 0.35, 96, 5,
			[]int{1, 7, 16, 41, 95, 96, 196}, false, false, 0},
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.001, 96, 1,
			[]int{1, 41, 64, 196}, false, false, 0},
		{"krogan-k2", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 2, 0.001, 96, 1,
			[]int{41, 64}, false, false, 0},
		{"krogan-k3", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 3, 0.001, 96, 1,
			[]int{37, 196}, false, false, 0},
		{"dblp", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.025))), 1, 0.001, 48, 3,
			[]int{17, 48}, false, false, 0},
		{"krogan-theta0.5", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.5, 96, 1,
			[]int{16, 41}, true, false, 0},
		{"krogan-theta0.4", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.4, 96, 1,
			[]int{60, 80}, true, true, 0.001},
		{"krogan-theta0.7", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))), 1, 0.7, 96, 1,
			[]int{30, 41}, true, true, 0.001},
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// viewPruned is the reference θ-prune: it reads the alive-world count of
// every view triangle of the candidate most recently bound with
// seedCandidate, closure and extras alike, where the kernel reads the
// closure before seeding (closurePruned) and the extras after
// (extrasPruned).
func viewPruned(ge *globalEstimator, remaining int) bool {
	floor := ge.need - int32(remaining)
	if floor <= 0 {
		return false
	}
	for t := 0; t < ge.seed.Len(); t++ {
		if ge.aliveCnt[ge.seed.AliveUID(t)] < floor {
			return true
		}
	}
	return false
}

// midStreamPrunes streams c's bank through windows of `window` worlds past
// every g-NuDecomp candidate, as globalNuclei does, and counts per window
// the candidates the θ-prune drops: early[w] on the closure alone, before
// any seed is cut, and dropped[w] in all. The prune reads only alive-world
// counts, so no candidate is scanned. It fails t if the two-step prune
// ever disagrees with the reference prune over the whole view.
func midStreamPrunes(t *testing.T, c windowDiffCase, local *LocalResult, window int) (early, dropped []int) {
	cs := newCandidateSpace(local, c.k)
	cands, _ := cs.candidates(c.k, nil) // a nil stop never ends it early
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
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, hi, c.seed)
		est.setWindow(masks, hi-lo)
		early, dropped = append(early, 0), append(dropped, 0)
		w := len(dropped) - 1
		kept := live[:0]
		for _, ci := range live {
			closure := cands.set(ci)
			first := est.closurePruned(closure, n-hi)
			est.seedCandidate(closure, c.k)
			full := viewPruned(est, n-hi)
			if full != (first || est.extrasPruned(n-hi)) {
				t.Fatalf("%s window=%d [%d,%d) candidate %d: closure prune %v, extras prune %v, whole-view prune %v",
					c.name, window, lo, hi, ci, first, est.extrasPruned(n-hi), full)
			}
			switch {
			case first:
				early[w]++
				dropped[w]++
			case full:
				dropped[w]++
			default:
				kept = append(kept, ci)
			}
		}
		live = kept
	}
	return early, dropped
}

// TestGlobalNucleiWindowedDifferential: streaming the shared bank through
// fixed-size windows (MCOptions.Window) returns nuclei byte-identical to the
// full-bank run — same sets, same estimated MinProb — for every window size
// and worker count. The windowed path re-draws each window's worlds from the
// same chunk-derived PRNG streams and accumulates the same integer counts,
// and drops a candidate early only once its θ-prune holds for every world
// still to come, so nothing may differ. On the cases marked midStream the
// prune must drop candidates before the last window, so the remaining-worlds
// term of the prune is exercised; on the one marked earlyPrune it must drop
// closures before they are seeded both on the first window (whose dropped
// candidates keep empty spans of totals) and on a later one. Every window
// of those cases also checks the two-step prune against the whole-view
// reference (viewPruned).
func TestGlobalNucleiWindowedDifferential(t *testing.T) {
	for _, c := range windowDiffCases() {
		// One pruning decomposition per case: every run below shares it, so
		// the re-runs pay for the windowed validation alone.
		local, err := LocalDecompose(c.pg, c.localTheta(c.theta), Options{Mode: ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		base, err := GlobalNuclei(c.pg, c.k, c.theta,
			MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1, Local: local})
		if err != nil {
			t.Fatal(err)
		}
		// krogan-theta0.4 keeps nuclei past candidates dropped on the first
		// window, so their totals must line up with the right candidates.
		if (c.name == "fig1" || c.name == "krogan-theta0.4") && len(base) == 0 {
			t.Fatalf("%s: full-bank run found no nuclei; differential test is vacuous", c.name)
		}
		for _, win := range c.windows {
			if c.midStream {
				early, dropped := midStreamPrunes(t, c, local, win)
				if d := sum(dropped[:len(dropped)-1]); d == 0 {
					t.Errorf("%s window=%d: the θ-prune dropped no candidate before the last window", c.name, win)
				} else {
					t.Logf("%s window=%d: %d candidates dropped before the last window; closure prunes per window %v",
						c.name, win, d, early)
				}
				if c.earlyPrune && (early[0] == 0 || sum(early[1:]) == 0) {
					t.Errorf("%s window=%d: closure prunes per window %v, want some on the first window and on a later one",
						c.name, win, early)
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
		local, err := LocalDecompose(c.pg, c.localTheta(theta), Options{Mode: ModeDP, Workers: 1})
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
// reference verdict is a failure. The prune the kernel runs on the closure
// before seeding may fire only where the reference prune over the whole
// view (viewPruned) fires, never on a candidate the reference passes, and
// must fire on some candidate; with the prune on the seed's extra triangles
// it must agree with the reference exactly. This pins the estimator's fast
// paths to the reference predicate independently of the end-to-end golden
// snapshot.
func TestGlobalEstimatorAliveAndPruneDifferential(t *testing.T) {
	local := sharedKroganLocal(t)
	pg := local.PG
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
	closures := candidateClosures(cs, 1)
	var refCounts [][]int32
	for _, closure := range closures {
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
	passed, failed, pruned, earlyAll := 0, 0, 0, 0
	for _, theta := range []float64{0.05, 0.3, 0.8} {
		est := newGlobalEstimator(pool, cs, union, decomp.LaneIndex(nil, cs.g, union), n, theta)
		est.setWindow(masks, n)
		early := 0
		for c, closure := range closures {
			p0, ok0 := est.tailVerdict(refCounts[c])
			first := est.closurePruned(closure, 0)
			totals := make([]int32, est.seedCandidate(closure, 1))
			fires := viewPruned(est, 0)
			if first {
				early++
				if !fires {
					t.Errorf("θ=%v candidate %d: closure prune fired, whole-view prune did not", theta, c)
				}
				if ok0 {
					t.Errorf("θ=%v candidate %d: closure prune fired on a candidate the reference passes (%v)", theta, c, p0)
				}
			}
			if fires != (first || est.extrasPruned(0)) {
				t.Errorf("θ=%v candidate %d: whole-view prune %v, closure prune %v, extras prune %v",
					theta, c, fires, first, est.extrasPruned(0))
			}
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
		t.Logf("θ=%v: closure prune fired on %d of %d candidates", theta, early, len(closures))
		earlyAll += early
	}
	if earlyAll == 0 {
		t.Error("the closure prune fired on no candidate at any θ; its checks are vacuous")
	}
	if passed == 0 || failed == 0 || pruned == 0 {
		t.Fatalf("fixture vacuous: %d passed, %d failed (%d via prune)", passed, failed, pruned)
	}
	t.Logf("differential corpus: %d passed, %d failed (%d via prune)", passed, failed, pruned)
}
