package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"probnucleus/internal/par"
)

func mustBuild(t *testing.T, n int, edges [][2]int32) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
	return b.Build()
}

func completeGraph(n int) *Graph {
	b := NewBuilder(n)
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := int32(0); int(i) < n-1; i++ {
		_ = b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := mustBuild(t, 4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if got := g.NumVertices(); got != 4 {
		t.Errorf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if got := g.Degree(2); got != 3 {
		t.Errorf("Degree(2) = %d, want 3", got)
	}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	wantN := []int32{0, 1, 3}
	if got := g.Neighbors(2); !equalInt32(got, wantN) {
		t.Errorf("Neighbors(2) = %v, want %v", got, wantN)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(-1, 2); err == nil {
		t.Error("negative id accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestBuilderGrowsVertexSpace(t *testing.T) {
	b := NewBuilder(0)
	if err := b.AddEdge(5, 9); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if got := g.NumVertices(); got != 10 {
		t.Errorf("NumVertices = %d, want 10", got)
	}
}

func TestHasEdgeAndAdjIndex(t *testing.T) {
	g := mustBuild(t, 5, [][2]int32{{0, 1}, {0, 2}, {0, 4}, {3, 4}})
	cases := []struct {
		u, v int32
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 3, false}, {4, 3, true},
		{0, 0, false}, {2, 4, false}, {-1, 0, false}, {0, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
	if idx := g.AdjIndex(0, 3); idx != -1 {
		t.Errorf("AdjIndex(0,3) = %d, want -1", idx)
	}
	// Every directed edge's AdjIndex must point at the right neighbour.
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			idx := g.AdjIndex(u, v)
			if idx < 0 || g.adj[idx] != v {
				t.Errorf("AdjIndex(%d,%d) = %d, inconsistent", u, v, idx)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}}
	g := mustBuild(t, 5, in)
	got := g.Edges()
	if len(got) != len(in) {
		t.Fatalf("Edges len = %d, want %d", len(got), len(in))
	}
	for _, e := range got {
		if e.U >= e.V {
			t.Errorf("edge %v not canonical", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v reported but absent", e)
		}
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []int32 }{
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, []int32{2, 3}},
		{[]int32{}, []int32{1}, nil},
		{[]int32{1, 5, 9}, []int32{2, 6, 10}, nil},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, []int32{1, 2, 3}},
	}
	for _, c := range cases {
		if got := IntersectSorted(c.a, c.b); !equalInt32(got, c.want) {
			t.Errorf("IntersectSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersect3SortedAgainstPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a := randomSortedSet(rng, 20, 30)
		b := randomSortedSet(rng, 20, 30)
		c := randomSortedSet(rng, 20, 30)
		want := IntersectSorted(IntersectSorted(a, b), c)
		got := Intersect3Sorted(a, b, c)
		if !equalInt32(got, want) {
			t.Fatalf("Intersect3Sorted(%v,%v,%v) = %v, want %v", a, b, c, got, want)
		}
	}
}

func TestTrianglesComplete(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g := completeGraph(n)
		want := n * (n - 1) * (n - 2) / 6
		if got := len(g.Triangles()); got != want {
			t.Errorf("K%d triangles = %d, want %d", n, got, want)
		}
	}
}

func TestTrianglesNoneInTreesAndCycles(t *testing.T) {
	if got := len(pathGraph(10).Triangles()); got != 0 {
		t.Errorf("path triangles = %d, want 0", got)
	}
	b := NewBuilder(6)
	for i := int32(0); i < 6; i++ {
		_ = b.AddEdge(i, (i+1)%6)
	}
	if got := len(b.Build().Triangles()); got != 0 {
		t.Errorf("C6 triangles = %d, want 0", got)
	}
}

// bruteTriangles enumerates triangles by checking all vertex triples.
func bruteTriangles(g *Graph) map[Triangle]bool {
	out := make(map[Triangle]bool)
	n := int32(g.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				continue
			}
			for w := v + 1; w < n; w++ {
				if g.HasEdge(u, w) && g.HasEdge(v, w) {
					out[Triangle{u, v, w}] = true
				}
			}
		}
	}
	return out
}

func TestTrianglesMatchBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		g := randomGraph(rng, 12, 0.4)
		want := bruteTriangles(g)
		got := g.Triangles()
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d triangles, want %d", iter, len(got), len(want))
		}
		seen := make(map[Triangle]bool)
		for _, tr := range got {
			if tr.A >= tr.B || tr.B >= tr.C {
				t.Fatalf("non-canonical triangle %v", tr)
			}
			if seen[tr] {
				t.Fatalf("duplicate triangle %v", tr)
			}
			seen[tr] = true
			if !want[tr] {
				t.Fatalf("spurious triangle %v", tr)
			}
		}
	}
}

func TestMakeTriangleCanonical(t *testing.T) {
	perms := [][3]int32{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}
	for _, p := range perms {
		if got := MakeTriangle(p[0], p[1], p[2]); got != (Triangle{1, 2, 3}) {
			t.Errorf("MakeTriangle(%v) = %v", p, got)
		}
	}
}

func TestTriangleIndexComplete(t *testing.T) {
	for n := 4; n <= 8; n++ {
		g := completeGraph(n)
		ti := NewTriangleIndex(g, par.NewPool(1))
		wantTris := n * (n - 1) * (n - 2) / 6
		if ti.Len() != wantTris {
			t.Fatalf("K%d: Len = %d, want %d", n, ti.Len(), wantTris)
		}
		// In K_n every triangle has n-3 completions.
		for i, zs := range ti.Comps {
			if len(zs) != n-3 {
				t.Errorf("K%d: triangle %v has %d completions, want %d", n, ti.Tris[i], len(zs), n-3)
			}
		}
		wantCliques := n * (n - 1) * (n - 2) * (n - 3) / 24
		if got := ti.CliqueCount(); got != wantCliques {
			t.Errorf("K%d: CliqueCount = %d, want %d", n, got, wantCliques)
		}
		if got := len(cliquesOf(ti)); got != wantCliques {
			t.Errorf("K%d: cliques from Comps = %d, want %d", n, got, wantCliques)
		}
	}
}

// TestTriangleIndexLookup: the builder's lexicographic id order equals a
// comparator sort of the triangles for every worker count, and ID answers
// hits and misses identically on an enumerated root and on one assembled
// from its parts the way the artifact loader does.
func TestTriangleIndexLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	graphs := []*Graph{completeGraph(5), NewBuilder(0).Build()}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, randomGraph(rng, 30, 0.3))
	}
	for gi, g := range graphs {
		for _, w := range []int{1, 2, 8} {
			pool := par.NewPool(w)
			ti := NewTriangleIndex(g, pool)
			pool.Close()
			if want := comparatorOrder(ti.Tris); !slices.Equal(ti.ByTri(), want) {
				t.Fatalf("graph %d workers=%d: byTri %v, comparator sort %v", gi, w, ti.ByTri(), want)
			}
			loaded := IndexFromParts(ti.Tris, ti.Comps, comparatorOrder(ti.Tris))
			for i, tr := range ti.Tris {
				for _, idx := range []*TriangleIndex{ti, loaded} {
					if id, ok := idx.ID(tr); !ok || id != int32(i) {
						t.Fatalf("graph %d workers=%d: ID(%v) = %d,%v, want %d,true", gi, w, tr, id, ok, i)
					}
				}
			}
			n := int32(g.NumVertices())
			for _, miss := range []Triangle{{0, 1, n + 5}, {-1, 0, 1}, {n, n + 1, n + 2}} {
				for _, idx := range []*TriangleIndex{ti, loaded} {
					if _, ok := idx.ID(miss); ok {
						t.Fatalf("graph %d workers=%d: ID reported non-existent triangle %v", gi, w, miss)
					}
				}
			}
			for i := 0; i < 50 && n >= 3; i++ {
				tr := MakeTriangle(rng.Int31n(n), rng.Int31n(n), rng.Int31n(n))
				id1, ok1 := ti.ID(tr)
				id2, ok2 := loaded.ID(tr)
				want := g.HasEdge(tr.A, tr.B) && g.HasEdge(tr.A, tr.C) && g.HasEdge(tr.B, tr.C)
				if ok1 != want || ok2 != want || id1 != id2 {
					t.Fatalf("graph %d workers=%d: ID(%v) = (%d,%v) enumerated, (%d,%v) loaded, want found=%v",
						gi, w, tr, id1, ok1, id2, ok2, want)
				}
			}
		}
	}
}

// comparatorOrder is the reference lexicographic id order: the triangle ids
// sorted by Triangle.Compare.
func comparatorOrder(tris []Triangle) []int32 {
	ids := make([]int32, len(tris))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return tris[a].Compare(tris[b]) })
	return ids
}

// cliquesOf reads every 4-clique of the indexed graph from the completion
// lists, once each (at its triangle whose completion is the largest
// vertex), as sorted 4-tuples in lexicographic order.
func cliquesOf(ti *TriangleIndex) [][4]int32 {
	var out [][4]int32
	for i, tr := range ti.Tris {
		for _, z := range ti.Comps[i] {
			if z > tr.C {
				out = append(out, [4]int32{tr.A, tr.B, tr.C, z})
			}
		}
	}
	slices.SortFunc(out, func(a, b [4]int32) int { return slices.Compare(a[:], b[:]) })
	return out
}

func TestFourCliquesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		g := randomGraph(rng, 10, 0.5)
		ti := NewTriangleIndex(g, par.NewPool(1))
		want := bruteFourCliques(g)
		got := cliquesOf(ti)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d cliques, want %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: clique %d = %v, want %v", iter, i, got[i], want[i])
			}
		}
	}
}

func bruteFourCliques(g *Graph) [][4]int32 {
	var out [][4]int32
	n := int32(g.NumVertices())
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if !g.HasEdge(a, c) || !g.HasEdge(b, c) {
					continue
				}
				for d := c + 1; d < n; d++ {
					if g.HasEdge(a, d) && g.HasEdge(b, d) && g.HasEdge(c, d) {
						out = append(out, [4]int32{a, b, c, d})
					}
				}
			}
		}
	}
	return out
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles plus an isolated vertex.
	g := mustBuild(t, 7, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	comp, count := g.ConnectedComponents(false)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if comp[6] != -1 {
		t.Errorf("isolated vertex got component %d, want -1", comp[6])
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("triangle 0-1-2 split across components")
	}
	if comp[0] == comp[3] {
		t.Error("distinct components merged")
	}
	_, countAll := g.ConnectedComponents(true)
	if countAll != 3 {
		t.Errorf("countAll = %d, want 3", countAll)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := completeGraph(5)
	// Keep only edges incident to vertex 0.
	h := g.InducedSubgraph(func(u, v int32) bool { return u == 0 || v == 0 })
	if got := h.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if len(h.Triangles()) != 0 {
		t.Error("star graph should have no triangles")
	}
}

func TestDegeneracyRankIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15, 0.3)
		rank := g.degeneracyRank()
		seen := make([]bool, len(rank))
		for _, r := range rank {
			if r < 0 || int(r) >= len(rank) || seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEdgeCanon(t *testing.T) {
	if got := (Edge{5, 2}).Canon(); got != (Edge{2, 5}) {
		t.Errorf("Canon = %v", got)
	}
	if got := (Edge{2, 5}).Canon(); got != (Edge{2, 5}) {
		t.Errorf("Canon = %v", got)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Error("empty graph has nonzero size")
	}
	if len(g.Triangles()) != 0 {
		t.Error("empty graph has triangles")
	}
	comp, count := g.ConnectedComponents(true)
	if len(comp) != 0 || count != 0 {
		t.Error("empty graph has components")
	}
}

// --- helpers ---

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomSortedSet(rng *rand.Rand, maxLen, universe int) []int32 {
	n := rng.Intn(maxLen)
	m := make(map[int32]bool, n)
	for i := 0; i < n; i++ {
		m[int32(rng.Intn(universe))] = true
	}
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if rng.Float64() < p {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// TestGallop: Gallop is a lower bound — the first index whose element is
// ≥ x — for every probe on sorted lists short enough to stay in the linear
// prefix and long enough to gallop, including probes past the end.
func TestGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 8, 9, 17, 100, 1000} {
		s := make([]int32, n)
		for i := range s {
			s[i] = rng.Int31n(int32(3*n + 1))
		}
		slices.Sort(s)
		for x := int32(-1); x <= int32(3*n+2); x++ {
			want, _ := slices.BinarySearch(s, x)
			if got := Gallop(s, x); got != want {
				t.Fatalf("n=%d x=%d: Gallop = %d, want %d", n, x, got, want)
			}
		}
	}
}
