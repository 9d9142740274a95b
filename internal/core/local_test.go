package core

import (
	"math"
	"math/rand"
	"testing"

	"probnucleus/internal/decomp"
	"probnucleus/internal/exact"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/par"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

func TestLocalDecomposeValidatesTheta(t *testing.T) {
	pg := fixtures.Fig1()
	for _, bad := range []float64{0, -0.2, 1.5} {
		if _, err := LocalDecompose(pg, bad, Options{}); err == nil {
			t.Errorf("theta=%v accepted", bad)
		}
	}
}

// TestPaperExample1Local: the ℓ-(1,0.42)-nucleus of the Figure 1 graph is
// the subgraph H on vertices {1,2,3,4,5} with nine edges; all seven of its
// triangles have nucleusness exactly 1.
func TestPaperExample1Local(t *testing.T) {
	pg := fixtures.Fig1()
	res, err := LocalDecompose(pg, 0.42, Options{Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxNucleusness(); got != 1 {
		t.Fatalf("max nucleusness = %d, want 1", got)
	}
	nuclei := res.NucleiForK(1)
	if len(nuclei) != 1 {
		t.Fatalf("%d ℓ-(1,0.42)-nuclei, want 1", len(nuclei))
	}
	h := nuclei[0]
	if len(h.Vertices) != 5 || len(h.Edges) != 9 || len(h.Triangles) != 7 {
		t.Errorf("nucleus = %d vertices / %d edges / %d triangles, want 5/9/7",
			len(h.Vertices), len(h.Edges), len(h.Triangles))
	}
	for _, v := range h.Vertices {
		if v < 1 || v > 5 {
			t.Errorf("unexpected vertex %d in nucleus", v)
		}
	}
	// Spot-check the κ probabilities quoted in Example 1: triangle (1,3,5)
	// is in one 4-clique with probability exactly 0.5.
	tri := graph.MakeTriangle(1, 3, 5)
	if got := res.NucleusnessOf(tri); got != 1 {
		t.Errorf("ν(1,3,5) = %d, want 1", got)
	}
	probs := exact.Tail(fixtures.Fig2aNucleus(), tri, 1)
	if math.Abs(probs.Local-0.5) > 1e-9 {
		t.Errorf("exact Pr(X_{H,△,ℓ} ≥ 1) = %v, want 0.5", probs.Local)
	}
}

// TestPaperExample1GlobalProbability: Pr(X_{H,△,g} ≥ 1) = 0.06+0.21 = 0.27
// for △ = (1,3,5) in the Figure 2a nucleus (the paper's headline example of
// local ≠ global).
func TestPaperExample1GlobalProbability(t *testing.T) {
	h := fixtures.Fig2aNucleus()
	probs := exact.Tail(h, graph.MakeTriangle(1, 3, 5), 1)
	if math.Abs(probs.Global-0.27) > 1e-9 {
		t.Errorf("exact Pr(X_{H,△,g} ≥ 1) = %v, want 0.27", probs.Global)
	}
	// The weakly-global probability equals 0.5 here (the worlds containing
	// the full {1,2,3,5} clique), which is why H is a w-(1,0.42)-nucleus.
	if math.Abs(probs.Weak-0.5) > 1e-9 {
		t.Errorf("exact Pr(X_{H,△,w} ≥ 1) = %v, want 0.5", probs.Weak)
	}
}

// TestPaperFig3Nuclei: the two g-(1,0.42)-nuclei of Figure 3 exist with
// probabilities 0.5 and 0.42 respectively.
func TestPaperFig3Nuclei(t *testing.T) {
	a := fixtures.Fig3aNucleus()
	// Any triangle of the {1,2,3,5} clique.
	pa := exact.Tail(a, graph.MakeTriangle(1, 2, 3), 1)
	if math.Abs(pa.Global-0.5) > 1e-9 {
		t.Errorf("Fig 3a global tail = %v, want 0.5", pa.Global)
	}
	b := fixtures.Fig3bNucleus()
	pb := exact.Tail(b, graph.MakeTriangle(1, 2, 3), 1)
	if math.Abs(pb.Global-0.42) > 1e-9 {
		t.Errorf("Fig 3b global tail = %v, want 0.42", pb.Global)
	}
}

// TestPaperExample2: the all-0.6 K5 is an ℓ-(2,0.01)-nucleus but its
// weakly-global tail is 0.6¹⁰ ≈ 0.006 < 0.01.
func TestPaperExample2(t *testing.T) {
	k5 := fixtures.Fig3cK5()
	res, err := LocalDecompose(k5, 0.01, Options{Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	for t2, v := range res.Nucleusness {
		if v != 2 {
			t.Errorf("ν(%v) = %d, want 2", res.TI.Tris[t2], v)
		}
	}
	probs := exact.Tail(k5, graph.MakeTriangle(0, 1, 2), 2)
	want := math.Pow(0.6, 10)
	if math.Abs(probs.Weak-want) > 1e-12 {
		t.Errorf("exact weak tail = %v, want %v", probs.Weak, want)
	}
	if math.Abs(probs.Global-want) > 1e-12 {
		t.Errorf("exact global tail = %v, want %v", probs.Global, want)
	}
	// Local: Pr(△)·Pr[ζ ≥ 2] = 0.216 · 0.216² ≈ 0.01008 ≥ 0.01.
	if probs.Local < 0.01 {
		t.Errorf("exact local tail = %v, want ≥ 0.01", probs.Local)
	}
}

// TestInitialKappaAgainstOracle validates the DP initial scores against the
// exhaustive-enumeration oracle on random small graphs.
func TestInitialKappaAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 15; iter++ {
		pg := randomProbGraph(rng, 7, 0.6)
		if pg.NumEdges() > exact.MaxEdges {
			continue
		}
		theta := 0.05 + 0.5*rng.Float64()
		ti, kappa, err := initialKappa(pg, theta, Options{Mode: ModeDP})
		if err != nil {
			t.Fatal(err)
		}
		for t2 := 0; t2 < ti.Len(); t2++ {
			want := exact.LocalNucleusness(pg, ti.Tris[t2], theta)
			if kappa[t2] != want {
				t.Fatalf("iter %d θ=%v: κ(%v) = %d, oracle %d",
					iter, theta, ti.Tris[t2], kappa[t2], want)
			}
		}
	}
}

// TestDeterministicEdgesMatchDeterministicDecomposition: with all
// probabilities 1, ℓ-NuDecomp at any θ equals the deterministic nucleus
// decomposition.
func TestDeterministicEdgesMatchDeterministicDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 20; iter++ {
		g := randomDetGraph(rng, 12, 0.5)
		var es []probgraph.ProbEdge
		for _, e := range g.Edges() {
			es = append(es, probgraph.ProbEdge{U: e.U, V: e.V, P: 1})
		}
		pg := probgraph.MustNew(g.NumVertices(), es)
		for _, theta := range []float64{0.2, 0.9, 1} {
			res, err := LocalDecompose(pg, theta, Options{Mode: ModeDP})
			if err != nil {
				t.Fatal(err)
			}
			ti, nu := decomp.NucleusNumbers(g)
			if ti.Len() != res.TI.Len() {
				t.Fatalf("triangle count mismatch")
			}
			for t2 := 0; t2 < ti.Len(); t2++ {
				id, ok := res.TI.ID(ti.Tris[t2])
				if !ok {
					t.Fatalf("triangle %v missing", ti.Tris[t2])
				}
				if res.Nucleusness[id] != nu[t2] {
					t.Fatalf("iter %d θ=%v: ν(%v) = %d, deterministic %d",
						iter, theta, ti.Tris[t2], res.Nucleusness[id], nu[t2])
				}
			}
		}
	}
}

// TestNucleusnessMonotoneInTheta: raising θ can only lower ν.
func TestNucleusnessMonotoneInTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 10; iter++ {
		pg := randomProbGraph(rng, 10, 0.6)
		prev := map[graph.Triangle]int{}
		first := true
		for _, theta := range []float64{0.05, 0.2, 0.5, 0.8} {
			res, err := LocalDecompose(pg, theta, Options{Mode: ModeDP})
			if err != nil {
				t.Fatal(err)
			}
			cur := map[graph.Triangle]int{}
			for t2, v := range res.Nucleusness {
				cur[res.TI.Tris[t2]] = v
			}
			if !first {
				for tri, v := range cur {
					if v > prev[tri] {
						t.Fatalf("iter %d: ν(%v) rose from %d to %d as θ grew",
							iter, tri, prev[tri], v)
					}
				}
			}
			prev, first = cur, false
		}
	}
}

// TestLowTriangleProbabilityExcluded: triangles with Pr(△) < θ get ν = −1
// and never appear in any nucleus.
func TestLowTriangleProbabilityExcluded(t *testing.T) {
	// A K4 where one edge has probability 0.1: the two triangles through
	// that edge have Pr(△) ≤ 0.1 < θ = 0.3.
	pg := probgraph.MustNew(4, []probgraph.ProbEdge{
		{U: 0, V: 1, P: 0.1}, {U: 0, V: 2, P: 1}, {U: 0, V: 3, P: 1},
		{U: 1, V: 2, P: 1}, {U: 1, V: 3, P: 1}, {U: 2, V: 3, P: 1},
	})
	res, err := LocalDecompose(pg, 0.3, Options{Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	for t2, v := range res.Nucleusness {
		tri := res.TI.Tris[t2]
		hasWeakEdge := tri.A == 0 && tri.B == 1 // canonical: holds both 0 and 1
		if hasWeakEdge && v != -1 {
			t.Errorf("ν(%v) = %d, want -1 (Pr(△) < θ)", tri, v)
		}
		if !hasWeakEdge && v < 0 {
			t.Errorf("ν(%v) = %d, want ≥ 0", tri, v)
		}
	}
	for _, nuc := range res.NucleiForK(0) {
		for _, tri := range nuc.Triangles {
			if tri.A == 0 && tri.B == 1 {
				t.Errorf("excluded triangle %v appeared in a nucleus", tri)
			}
		}
	}
}

// TestAPCloseToDP: the AP peeling produces nucleusness scores close to DP
// (Table 2's experiment in miniature).
func TestAPCloseToDP(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	totalTris, wrong := 0, 0
	for iter := 0; iter < 10; iter++ {
		pg := randomProbGraph(rng, 18, 0.5)
		dp, err := LocalDecompose(pg, 0.2, Options{Mode: ModeDP})
		if err != nil {
			t.Fatal(err)
		}
		counts := map[pbd.Method]int{}
		ap, err := LocalDecompose(pg, 0.2, Options{Mode: ModeAP, MethodCounts: counts})
		if err != nil {
			t.Fatal(err)
		}
		for t2 := range dp.Nucleusness {
			totalTris++
			d := dp.Nucleusness[t2] - ap.Nucleusness[t2]
			if d != 0 {
				wrong++
			}
			if d < -2 || d > 2 {
				t.Errorf("iter %d: ν_DP=%d vs ν_AP=%d for %v",
					iter, dp.Nucleusness[t2], ap.Nucleusness[t2], dp.TI.Tris[t2])
			}
		}
	}
	if totalTris == 0 {
		t.Fatal("no triangles generated")
	}
	if frac := float64(wrong) / float64(totalTris); frac > 0.25 {
		t.Errorf("AP disagreed with DP on %.0f%% of triangles", 100*frac)
	}
}

// TestMethodCountsInstrumentation: AP mode reports which approximations ran.
func TestMethodCountsInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	pg := randomProbGraph(rng, 16, 0.6)
	counts := map[pbd.Method]int{}
	if _, err := LocalDecompose(pg, 0.2, Options{Mode: ModeAP, MethodCounts: counts}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Error("no method counts recorded")
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	empty := probgraph.MustNew(0, nil)
	res, err := LocalDecompose(empty, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nucleusness) != 0 || res.MaxNucleusness() != 0 {
		t.Error("empty graph produced triangles")
	}
	if n := res.NucleiForK(0); len(n) != 0 {
		t.Error("empty graph produced nuclei")
	}
	// Triangle-free graph.
	path := probgraph.MustNew(4, []probgraph.ProbEdge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 2, V: 3, P: 0.9},
	})
	res, err = LocalDecompose(path, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nucleusness) != 0 {
		t.Error("path graph produced triangles")
	}
	if got := res.NucleusnessOf(graph.MakeTriangle(0, 1, 2)); got != -1 {
		t.Errorf("NucleusnessOf missing triangle = %d, want -1", got)
	}
}

// --- helpers ---

func randomProbGraph(rng *rand.Rand, n int, density float64) *probgraph.Graph {
	var es []probgraph.ProbEdge
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if rng.Float64() < density {
				es = append(es, probgraph.ProbEdge{U: u, V: v, P: 0.05 + 0.95*rng.Float64()})
			}
		}
	}
	return probgraph.MustNew(n, es)
}

func randomDetGraph(rng *rand.Rand, n int, density float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if rng.Float64() < density {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// initialKappa computes, without any peeling, the initial κ score of every
// triangle: max{k : Pr(X_{G,△,ℓ} ≥ k) ≥ θ} over the whole graph (Sec. 5.1).
// This is the quantity the exact enumeration oracle can validate directly;
// it is a standalone reference for the peel's own initial scoring loop.
func initialKappa(pg *probgraph.Graph, theta float64, opts Options) (*graph.TriangleIndex, []int, error) {
	if !(theta > 0 && theta <= 1) {
		return nil, nil, errTheta(theta)
	}
	if opts.Hyper == (pbd.Hyper{}) {
		opts.Hyper = pbd.DefaultHyper
	}
	pool := par.NewPool(opts.Workers)
	defer pool.Close()
	workers := pool.Workers()
	ti := graph.NewTriangleIndex(pg.G, pool)
	kappa := make([]int, ti.Len())
	scr := make([]scoreScratch, workers)
	pool.ForWorker(ti.Len(), func(w, t int) {
		sc := &scr[w]
		pTri, probs := cliqueFactors(pg, ti.Tris[t], ti.Comps[t], sc.probs[:0])
		sc.probs = probs
		thr := theta / pTri
		if opts.Mode == ModeAP {
			kappa[t], _ = pbd.ApproxMaxKScratch(probs, thr, opts.Hyper, &sc.dp)
		} else {
			kappa[t] = pbd.MaxKScratch(probs, thr, &sc.dp)
		}
	})
	return ti, kappa, nil
}
