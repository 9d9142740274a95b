package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probnucleus/internal/decomp"
	"probnucleus/internal/exact"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// binomialUpperTail returns Pr(X ≥ f) for X ~ Binomial(s, q).
func binomialUpperTail(s, f int, q float64) float64 {
	p := 0.0
	for i := f; i <= s; i++ {
		lc, _ := math.Lgamma(float64(s + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(s - i + 1))
		p += math.Exp(lc - li - lr + float64(i)*math.Log(q) + float64(s-i)*math.Log1p(-q))
	}
	return p
}

// TestGlobalEstimatorExactConformance checks the (ε,δ) guarantee of the
// g-NuDecomp estimator (Lemma 4) against exact possible-world enumeration:
// for every candidate the estimator validates and every triangle of its
// view, the Monte-Carlo estimate p̂ from n = ⌈ln(2/δ)/(2ε²)⌉ shared worlds
// must satisfy |p̂ − Pr(X_{H,△,g} ≥ k)| ≤ ε — the exact tail of exact.Tail
// on the candidate subgraph H — in at least a (1−δ) fraction of Monte-Carlo
// seeds. Each (candidate, triangle) pair's failure count over the seeds is
// held to a one-sided binomial test against the rate δ the guarantee
// allows. Both the full-bank estimate and the windowed scan (with a window
// that divides neither the bank nor the PRNG chunk) are checked; they read
// the same worlds, so their counts must also agree exactly.
func TestGlobalEstimatorExactConformance(t *testing.T) {
	const (
		eps, delta = 0.1, 0.1
		seeds      = 30
		window     = 37
		// Per-pair significance: a conforming estimator fails the test with
		// probability at most alpha per pair.
		alpha = 1e-4
	)
	n := mc.SampleSize(eps, delta)
	type input struct {
		name  string
		pg    *probgraph.Graph
		theta float64
		k     int
	}
	inputs := []input{
		{"fig1", fixtures.Fig1(), 0.2, 1},
		{"fig1", fixtures.Fig1(), 0.2, 0},
		{"fig3c-k5", fixtures.Fig3cK5(), 0.01, 0},
		{"fig3c-k5", fixtures.Fig3cK5(), 0.01, 1},
		{"fig3c-k5", fixtures.Fig3cK5(), 0.01, 2},
	}
	rng := rand.New(rand.NewSource(137))
	for len(inputs) < 20 {
		pg := randomProbGraph(rng, 7, 0.6)
		if pg.NumEdges() > 16 {
			continue
		}
		inputs = append(inputs, input{fmt.Sprintf("random%d", len(inputs)), pg, 0.05, len(inputs) % 3})
	}
	pool := par.NewPool(2)
	defer pool.Close()
	pairs := 0
	for _, in := range inputs {
		local, err := LocalDecompose(in.pg, in.theta, Options{Mode: ModeDP, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		cs := newCandidateSpace(local, in.k)
		if len(cs.triangles) == 0 {
			continue
		}
		union := appendTriangleEdges(nil, cs.ti, cs.triangles)
		upg := in.pg.SubgraphOfEdges(union)
		checkCandidates(t, in.name, cs, in.k)
		closures := candidateClosures(cs, in.k)
		// Exact tails per candidate view triangle, in view order.
		exactTail := make([][]float64, len(closures))
		{
			est := planEstimator(t, pool, local, in.k, n, 0)
			for c, closure := range closures {
				h := in.pg.SubgraphOfEdges(appendTriangleEdges(nil, cs.ti, closure))
				m := est.seedCandidate(0, closure, in.k)
				for j := 0; j < m; j++ {
					tri := cs.ti.Tris[est.wu.Root(est.workers[0].seed.AliveUID(j))]
					exactTail[c] = append(exactTail[c], exact.Tail(h, tri, in.k).Global)
				}
			}
		}
		fails := make([][]int, len(closures))
		for c := range closures {
			fails[c] = make([]int, len(exactTail[c]))
		}
		var bank mc.Bank
		for s := int64(1); s <= seeds; s++ {
			// Full bank: every candidate scanned against the whole bank in one
			// window, unpruned; the per-triangle estimates are read back.
			full := planEstimator(t, pool, local, in.k, n, 0)
			masks, _ := bank.WorldMasksWindow(pool, upg, n, 0, n, s)
			full.setWindow(masks, n)
			fullP := make([][]float64, len(closures))
			for c, closure := range closures {
				counts := make([]int32, full.seedCandidate(0, closure, in.k))
				full.scanInto(0, counts)
				for j := range exactTail[c] {
					fullP[c] = append(fullP[c], float64(counts[j])/float64(n))
				}
			}
			// Windowed: stream the same worlds window by window past every
			// candidate, accumulating totals as the kernel does.
			win := planEstimator(t, pool, local, in.k, n, 0)
			totals := make([][]int32, len(closures))
			for c := range closures {
				totals[c] = make([]int32, len(exactTail[c]))
			}
			for lo := 0; lo < n; lo += window {
				hi := min(lo+window, n)
				wmasks, _ := bank.WorldMasksWindow(pool, upg, n, lo, hi, s)
				win.setWindow(wmasks, hi-lo)
				for c, closure := range closures {
					win.seedCandidate(0, closure, in.k)
					win.scanInto(0, totals[c])
				}
			}
			for c := range closures {
				for j, want := range exactTail[c] {
					p := fullP[c][j]
					if wp := float64(totals[c][j]) / float64(n); wp != p {
						t.Fatalf("%s k=%d seed %d candidate %d triangle %d: windowed estimate %v != full-bank %v",
							in.name, in.k, s, c, j, wp, p)
					}
					if math.Abs(p-want) > eps {
						fails[c][j]++
					}
				}
			}
		}
		for c := range closures {
			for j, f := range fails[c] {
				pairs++
				if pv := binomialUpperTail(seeds, f, delta); pv < alpha {
					t.Errorf("%s k=%d candidate %d triangle %d: |p̂ − exact %.4f| > ε in %d/%d seeds (p = %.2g < %g)",
						in.name, in.k, c, j, exactTail[c][j], f, seeds, pv, alpha)
				}
			}
		}
	}
	if pairs < 20 {
		t.Fatalf("conformance corpus too small: %d (candidate, triangle) pairs", pairs)
	}
	t.Logf("%d (candidate, triangle) pairs within (ε=%v, δ=%v) over %d seeds of %d worlds", pairs, eps, delta, seeds, n)
}

// weakEstimates mirrors the w-NuDecomp kernel's scoring loop: worlds are
// drawn over the candidate union window by window and transposed into lane
// blocks, each candidate's peel seed is rebound per window and its
// per-triangle losses accumulated block by block, and a
// candidate triangle's estimate is its share of worlds without a loss — 0
// outside the candidate's level-k core. window = n draws the whole bank in
// one call.
func weakEstimates(pool *par.Pool, local *LocalResult, cands []decomp.Nucleus, k, n, window int, seed int64) [][]float64 {
	union := unionEdges(cands)
	upg := local.PG.SubgraphOfEdges(union)
	inc := local.incidence()
	laneOf := decomp.LaneIndex(nil, local.PG.G, union)
	var bank mc.Bank
	var ps decomp.WorldPeelSeed
	var scorer decomp.WorldMembershipScorer
	var lanes mc.Lanes
	totals := make([][]int32, len(cands))
	out := make([][]float64, len(cands))
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		masks, words := bank.WorldMasksWindow(pool, upg, n, lo, hi, seed)
		lanes.Transpose(masks, hi-lo, words)
		for c, cand := range cands {
			ps.Seed(local.TI, inc, cand.TriIDs, laneOf, k)
			if totals[c] == nil {
				totals[c] = make([]int32, ps.Len())
			}
			scoreLanesSerial(&scorer, &ps, &lanes, totals[c])
			if hi < n {
				continue
			}
			for _, pid := range cand.TriIDs {
				p := 0.0
				if id := ps.ViewID(pid); ps.InCore(id) {
					p = float64(int32(n)-totals[c][id]) / float64(n)
				}
				out[c] = append(out[c], p)
			}
		}
	}
	return out
}

// TestWeakEstimatorExactConformance is TestGlobalEstimatorExactConformance
// for w-NuDecomp: for every local candidate and every triangle of it, the
// estimate p̂ from n = ⌈ln(2/δ)/(2ε²)⌉ shared worlds must satisfy
// |p̂ − Pr(X_{H,△,w} ≥ k)| ≤ ε — the exact weak tail of exact.Tail on the
// candidate subgraph H — in at least a (1−δ) fraction of Monte-Carlo seeds,
// under the same one-sided binomial test. The full-bank and windowed scans
// read the same worlds, so their estimates must agree exactly. This is the
// end-to-end check of the weak seed's peel (decomp.WorldPeelSeed) and its
// word-parallel lane scoring.
func TestWeakEstimatorExactConformance(t *testing.T) {
	const (
		eps, delta = 0.1, 0.1
		seeds      = 30
		window     = 37
		alpha      = 1e-4
	)
	n := mc.SampleSize(eps, delta)
	type input struct {
		name  string
		pg    *probgraph.Graph
		theta float64
		k     int
	}
	inputs := []input{
		{"fig1", fixtures.Fig1(), 0.2, 1},
		{"fig1", fixtures.Fig1(), 0.2, 0},
		{"fig3c-k5", fixtures.Fig3cK5(), 0.01, 0},
		{"fig3c-k5", fixtures.Fig3cK5(), 0.01, 1},
		{"fig3c-k5", fixtures.Fig3cK5(), 0.01, 2},
	}
	rng := rand.New(rand.NewSource(137))
	for len(inputs) < 20 {
		pg := randomProbGraph(rng, 7, 0.6)
		if pg.NumEdges() > 16 {
			continue
		}
		inputs = append(inputs, input{fmt.Sprintf("random%d", len(inputs)), pg, 0.05, len(inputs) % 3})
	}
	pool := par.NewPool(2)
	defer pool.Close()
	pairs := 0
	for _, in := range inputs {
		local, err := LocalDecompose(in.pg, in.theta, Options{Mode: ModeDP, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		cands := local.NucleiForK(in.k)
		exactTail := make([][]float64, len(cands))
		fails := make([][]int, len(cands))
		for c, cand := range cands {
			h := in.pg.SubgraphOfEdges(cand.Edges)
			for _, tri := range cand.Triangles {
				exactTail[c] = append(exactTail[c], exact.Tail(h, tri, in.k).Weak)
			}
			fails[c] = make([]int, len(cand.Triangles))
		}
		for s := int64(1); s <= seeds; s++ {
			fullP := weakEstimates(pool, local, cands, in.k, n, n, s)
			winP := weakEstimates(pool, local, cands, in.k, n, window, s)
			for c := range cands {
				for j, want := range exactTail[c] {
					p := fullP[c][j]
					if winP[c][j] != p {
						t.Fatalf("%s k=%d seed %d candidate %d triangle %d: windowed estimate %v != full-bank %v",
							in.name, in.k, s, c, j, winP[c][j], p)
					}
					if math.Abs(p-want) > eps {
						fails[c][j]++
					}
				}
			}
		}
		for c := range cands {
			for j, f := range fails[c] {
				pairs++
				if pv := binomialUpperTail(seeds, f, delta); pv < alpha {
					t.Errorf("%s k=%d candidate %d triangle %d: |p̂ − exact %.4f| > ε in %d/%d seeds (p = %.2g < %g)",
						in.name, in.k, c, j, exactTail[c][j], f, seeds, pv, alpha)
				}
			}
		}
	}
	if pairs < 20 {
		t.Fatalf("conformance corpus too small: %d (candidate, triangle) pairs", pairs)
	}
	t.Logf("%d (candidate, triangle) pairs within (ε=%v, δ=%v) over %d seeds of %d worlds", pairs, eps, delta, seeds, n)
}
