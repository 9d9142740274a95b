package decomp_test

// The per-world reference predicates of Definition 4 live in internal/exact,
// which imports this package, so package decomp's own tests reach them
// through this external test file: it checks them directly here and
// installs them as the oracles of the in-package kernel differentials.

import (
	"testing"

	"probnucleus/internal/decomp"
	"probnucleus/internal/exact"
	"probnucleus/internal/graph"
)

func init() {
	decomp.GlobalWorldOracle = exact.IsGlobalNucleusWorld
	decomp.MembershipOracle = exact.WorldNucleusMembership
}

func TestIsGlobalNucleusWorldK0IsConnectivity(t *testing.T) {
	// Lemma 2: for k = 0 the predicate is exactly world connectivity.
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(2, 3)
	disconnected := b.Build()
	verts := []int32{0, 1, 2, 3}
	if exact.IsGlobalNucleusWorld(disconnected, verts, 0) {
		t.Error("disconnected world accepted as 0-nucleus")
	}
	b2 := graph.NewBuilder(4)
	_ = b2.AddEdge(0, 1)
	_ = b2.AddEdge(1, 2)
	_ = b2.AddEdge(2, 3)
	if !exact.IsGlobalNucleusWorld(b2.Build(), verts, 0) {
		t.Error("connected world rejected as 0-nucleus")
	}
}

func TestIsGlobalNucleusWorldPaperExample1Worlds(t *testing.T) {
	// The H of Figure 2a has vertices {1,2,3,4,5} and nine edges. Per
	// Example 1, exactly two kinds of worlds are deterministic 1-nuclei:
	// the full world and the world missing both (2,4) and (3,4).
	verts := []int32{1, 2, 3, 4, 5}
	full := graph.NewBuilder(6)
	for _, e := range [][2]int32{{1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 5}, {2, 4}, {3, 4}, {3, 5}} {
		_ = full.AddEdge(e[0], e[1])
	}
	if !exact.IsGlobalNucleusWorld(full.Build(), verts, 1) {
		t.Error("full world of H rejected as 1-nucleus")
	}
	drop := func(skip map[[2]int32]bool) *graph.Graph {
		b := graph.NewBuilder(6)
		for _, e := range [][2]int32{{1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 5}, {2, 4}, {3, 4}, {3, 5}} {
			if skip[e] {
				continue
			}
			_ = b.AddEdge(e[0], e[1])
		}
		return b.Build()
	}
	// Missing both (2,4) and (3,4): K4{1,2,3,5} plus pendant edge (1,4) —
	// accepted (probability 0.06 in the paper's computation).
	w1 := drop(map[[2]int32]bool{{2, 4}: true, {3, 4}: true})
	if !exact.IsGlobalNucleusWorld(w1, verts, 1) {
		t.Error("0.06-world rejected as 1-nucleus")
	}
	// Missing only (2,4): triangle (1,3,4) has support 0 — rejected.
	w2 := drop(map[[2]int32]bool{{2, 4}: true})
	if exact.IsGlobalNucleusWorld(w2, verts, 1) {
		t.Error("0.09-world accepted as 1-nucleus")
	}
	// Missing only (3,4): triangle (1,2,4) has support 0 — rejected.
	w3 := drop(map[[2]int32]bool{{3, 4}: true})
	if exact.IsGlobalNucleusWorld(w3, verts, 1) {
		t.Error("0.14-world accepted as 1-nucleus")
	}
	// Missing (3,5): triangle (1,2,5) has support 0 — rejected.
	w4 := drop(map[[2]int32]bool{{3, 5}: true})
	if exact.IsGlobalNucleusWorld(w4, verts, 1) {
		t.Error("missing-(3,5) world accepted as 1-nucleus")
	}
}

func TestIsGlobalNucleusWorldTriangleConnectivity(t *testing.T) {
	// Two K4s joined by a path: every triangle has support 1, but the
	// triangle sets are not 4-clique-connected → not a 1-nucleus.
	b := graph.NewBuilder(9)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	for u := int32(4); u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	_ = b.AddEdge(3, 8)
	_ = b.AddEdge(8, 4)
	g := b.Build()
	verts := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if exact.IsGlobalNucleusWorld(g, verts, 1) {
		t.Error("two disjoint nuclei accepted as one 1-nucleus")
	}
	if !exact.IsGlobalNucleusWorld(g, verts, 0) {
		t.Error("connected world rejected at k=0")
	}
}

func TestWorldNucleusMembership(t *testing.T) {
	// K5 minus an edge: all triangles have nucleusness 1, none 2.
	b := graph.NewBuilder(5)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if u == 3 && v == 4 {
				continue
			}
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	m1 := exact.WorldNucleusMembership(g, 1)
	if len(m1) != len(g.Triangles()) {
		t.Errorf("k=1 membership = %d, want all %d", len(m1), len(g.Triangles()))
	}
	m2 := exact.WorldNucleusMembership(g, 2)
	if len(m2) != 0 {
		t.Errorf("k=2 membership = %d, want 0", len(m2))
	}
	m0 := exact.WorldNucleusMembership(g, 0)
	if len(m0) != len(g.Triangles()) {
		t.Errorf("k=0 membership = %d, want all", len(m0))
	}
}
