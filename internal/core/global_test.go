package core

import (
	"math"
	"strings"
	"testing"

	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/probgraph"
)

func sortedVerts(n ProbNucleus) []int32 { return n.Vertices }

// TestGlobalNucleiPaperFigure3: on the Figure 1 graph with k=1, the global
// algorithm must recover exactly the two g-nuclei of Figure 3 — the
// {1,2,3,5} clique (probability 0.5) and the {1,2,3,4} clique (0.42) — and
// reject the larger local nucleus H whose global tail is only 0.27.
// θ = 0.35 keeps a comfortable Monte-Carlo margin on both sides.
func TestGlobalNucleiPaperFigure3(t *testing.T) {
	pg := fixtures.Fig1()
	nuclei, err := GlobalNuclei(pg, 1, 0.35, MCOptions{Samples: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuclei) != 2 {
		t.Fatalf("%d g-(1,0.35)-nuclei, want 2 (got %+v)", len(nuclei), nuclei)
	}
	wantSets := map[string][4]int32{
		"a": {1, 2, 3, 5},
		"b": {1, 2, 3, 4},
	}
	found := map[string]bool{}
	for _, nuc := range nuclei {
		if len(nuc.Vertices) != 4 {
			t.Fatalf("nucleus on %d vertices, want 4", len(nuc.Vertices))
		}
		var vs [4]int32
		copy(vs[:], sortedVerts(nuc))
		for name, want := range wantSets {
			if vs == want {
				found[name] = true
				// Check the Monte-Carlo estimate against the exact values
				// 0.5 (Fig 3a) and 0.42 (Fig 3b).
				exact := 0.5
				if name == "b" {
					exact = 0.42
				}
				if math.Abs(nuc.MinProb-exact) > 0.04 {
					t.Errorf("nucleus %v: MinProb = %v, want ≈ %v", vs, nuc.MinProb, exact)
				}
			}
		}
	}
	if !found["a"] || !found["b"] {
		t.Errorf("expected both Figure 3 nuclei, found %v", found)
	}
}

// TestGlobalNucleiRejectsAtHighTheta: at θ = 0.55 even the {1,2,3,5} clique
// (exact probability 0.5) fails.
func TestGlobalNucleiRejectsAtHighTheta(t *testing.T) {
	pg := fixtures.Fig1()
	nuclei, err := GlobalNuclei(pg, 1, 0.55, MCOptions{Samples: 3000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuclei) != 0 {
		t.Errorf("%d nuclei at θ=0.55, want 0", len(nuclei))
	}
}

// TestGlobalNucleiExample2: on the all-0.6 K5 at k=2, the only candidate's
// global tail is 0.6¹⁰ ≈ 0.006 < θ = 0.05 → empty result.
func TestGlobalNucleiExample2(t *testing.T) {
	k5 := fixtures.Fig3cK5()
	nuclei, err := GlobalNuclei(k5, 2, 0.05, MCOptions{Samples: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuclei) != 0 {
		t.Errorf("%d g-(2,0.05)-nuclei on K5(0.6), want 0", len(nuclei))
	}
}

// TestGlobalNucleiDeterministicGraph: with all probabilities 1, a K5 is a
// g-(2,θ)-nucleus for any θ.
func TestGlobalNucleiDeterministicGraph(t *testing.T) {
	k5 := fixtures.CompleteProbGraph(5, 1)
	nuclei, err := GlobalNuclei(k5, 2, 0.99, MCOptions{Samples: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuclei) != 1 {
		t.Fatalf("%d nuclei, want 1", len(nuclei))
	}
	if len(nuclei[0].Vertices) != 5 || nuclei[0].MinProb != 1 {
		t.Errorf("nucleus = %d vertices, MinProb %v; want 5, 1",
			len(nuclei[0].Vertices), nuclei[0].MinProb)
	}
}

func TestGlobalNucleiRejectsNegativeK(t *testing.T) {
	if _, err := GlobalNuclei(fixtures.Fig1(), -1, 0.3, MCOptions{Samples: 10}); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := WeaklyGlobalNuclei(fixtures.Fig1(), -1, 0.3, MCOptions{Samples: 10}); err == nil {
		t.Error("negative k accepted")
	}
}

// TestNegativeKRejectedBeforeWork: k must be validated before the local
// decomposition fallback or any sampling runs. The regression is observable
// through the error itself: with an out-of-range θ, running LocalDecompose
// first (the seed-era order) would surface the θ error instead of the
// negative-k one.
func TestNegativeKRejectedBeforeWork(t *testing.T) {
	badTheta := 7.0 // would make LocalDecompose fail with a θ error
	for name, run := range map[string]func() error{
		"global": func() error {
			_, err := GlobalNuclei(fixtures.Fig1(), -1, badTheta, MCOptions{Samples: 10})
			return err
		},
		"weak": func() error {
			_, err := WeaklyGlobalNuclei(fixtures.Fig1(), -1, badTheta, MCOptions{Samples: 10})
			return err
		},
	} {
		err := run()
		if err == nil {
			t.Fatalf("%s: negative k accepted", name)
		}
		if !strings.Contains(err.Error(), "negative k") {
			t.Errorf("%s: error %q; want the negative-k validation to fire before any work", name, err)
		}
	}
}

// TestWeaklyGlobalPaperExample1: H (Figure 2a) is a w-(1,θ)-nucleus for
// θ slightly below 0.42 — all seven triangles qualify, connected as one
// nucleus.
func TestWeaklyGlobalPaperExample1(t *testing.T) {
	pg := fixtures.Fig1()
	nuclei, err := WeaklyGlobalNuclei(pg, 1, 0.38, MCOptions{Samples: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuclei) != 1 {
		t.Fatalf("%d w-(1,0.38)-nuclei, want 1", len(nuclei))
	}
	h := nuclei[0]
	if len(h.Vertices) != 5 || len(h.Triangles) != 7 {
		t.Errorf("w-nucleus = %d vertices / %d triangles, want 5/7",
			len(h.Vertices), len(h.Triangles))
	}
}

// TestWeaklyGlobalExample2: K5(0.6) at k=2: exact weak tail is 0.006, so at
// θ = 0.05 there is no w-nucleus even though the ℓ-nucleus exists.
func TestWeaklyGlobalExample2(t *testing.T) {
	k5 := fixtures.Fig3cK5()
	local, err := LocalDecompose(k5, 0.01, Options{Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	if len(local.NucleiForK(2)) != 1 {
		t.Fatal("expected the ℓ-(2,0.01)-nucleus to exist")
	}
	nuclei, err := WeaklyGlobalNuclei(k5, 2, 0.05, MCOptions{Samples: 2000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuclei) != 0 {
		t.Errorf("%d w-(2,0.05)-nuclei, want 0", len(nuclei))
	}
}

// TestWeaklyGlobalShrinksCandidate: in the Figure 1 graph at θ = 0.45, the
// {1,2,3,4} clique (probability 0.42) falls out but the {1,2,3,5} side
// (0.5) survives: the w-nucleus is the 4-vertex clique.
func TestWeaklyGlobalShrinksCandidate(t *testing.T) {
	pg := fixtures.Fig1()
	nuclei, err := WeaklyGlobalNuclei(pg, 1, 0.45, MCOptions{Samples: 6000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(nuclei) != 1 {
		t.Fatalf("%d w-(1,0.45)-nuclei, want 1", len(nuclei))
	}
	got := nuclei[0]
	if len(got.Vertices) != 4 {
		t.Fatalf("w-nucleus on %d vertices, want 4 (%v)", len(got.Vertices), got.Vertices)
	}
	want := [4]int32{1, 2, 3, 5}
	var vs [4]int32
	copy(vs[:], got.Vertices)
	if vs != want {
		t.Errorf("w-nucleus vertices = %v, want %v", vs, want)
	}
}

// TestContainmentChain: every g-(k,θ)-nucleus triangle set is contained in
// some w-(k,θ)-nucleus, which in turn is contained in an ℓ-(k,θ)-nucleus
// (the remark after Example 1).
func TestContainmentChain(t *testing.T) {
	pg := fixtures.Fig1()
	theta := 0.3
	local, err := LocalDecompose(pg, theta, Options{Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	opts := MCOptions{Samples: 4000, Seed: 12, Local: local}
	glob, err := GlobalNuclei(pg, 1, theta, opts)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := WeaklyGlobalNuclei(pg, 1, theta, opts)
	if err != nil {
		t.Fatal(err)
	}
	lNuclei := local.NucleiForK(1)
	triSet := func(tris []graph.Triangle) map[graph.Triangle]bool {
		m := make(map[graph.Triangle]bool)
		for _, tr := range tris {
			m[tr] = true
		}
		return m
	}
	contained := func(inner []graph.Triangle, outers []map[graph.Triangle]bool) bool {
		for _, out := range outers {
			all := true
			for _, tr := range inner {
				if !out[tr] {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	}
	var weakSets, localSets []map[graph.Triangle]bool
	for _, w := range weak {
		weakSets = append(weakSets, triSet(w.Triangles))
	}
	for _, l := range lNuclei {
		localSets = append(localSets, triSet(l.Triangles))
	}
	for _, g := range glob {
		if !contained(g.Triangles, weakSets) {
			t.Errorf("g-nucleus %v not contained in any w-nucleus", g.Vertices)
		}
	}
	for _, w := range weak {
		if !contained(w.Triangles, localSets) {
			t.Errorf("w-nucleus %v not contained in any ℓ-nucleus", w.Vertices)
		}
	}
}

// TestPrecomputedLocalReused: passing MCOptions.Local must give the same
// result as recomputing internally.
func TestPrecomputedLocalReused(t *testing.T) {
	pg := fixtures.Fig1()
	local, err := LocalDecompose(pg, 0.35, Options{Mode: ModeDP})
	if err != nil {
		t.Fatal(err)
	}
	a, err := GlobalNuclei(pg, 1, 0.35, MCOptions{Samples: 1000, Seed: 13, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GlobalNuclei(pg, 1, 0.35, MCOptions{Samples: 1000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("results differ: %d vs %d nuclei", len(a), len(b))
	}
}

// TestHoeffdingDefaultSamples: with no explicit sample count, ε=δ=0.1 gives
// n = 150 (the paper rounds to 200; both satisfy Lemma 4).
func TestHoeffdingDefaultSamples(t *testing.T) {
	if n := (NucleiRequest{}).sampleCount(); n != 150 {
		t.Errorf("default sample count = %d, want 150", n)
	}
	if n := (NucleiRequest{Samples: 200}).sampleCount(); n != 200 {
		t.Errorf("explicit sample count = %d, want 200", n)
	}
	if n := (NucleiRequest{Eps: 0.05, Delta: 0.1}).sampleCount(); n != 600 {
		t.Errorf("ε=0.05 sample count = %d, want 600", n)
	}
}

// TestGlobalOnGraphWithNoCliques: no 4-cliques → no candidates → empty.
func TestGlobalOnGraphWithNoCliques(t *testing.T) {
	tri := probgraph.MustNew(3, []probgraph.ProbEdge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 0, V: 2, P: 0.9},
	})
	g, err := GlobalNuclei(tri, 1, 0.1, MCOptions{Samples: 100, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	w, err := WeaklyGlobalNuclei(tri, 1, 0.1, MCOptions{Samples: 100, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 || len(w) != 0 {
		t.Errorf("nuclei on triangle graph: g=%d w=%d, want 0/0", len(g), len(w))
	}
}
