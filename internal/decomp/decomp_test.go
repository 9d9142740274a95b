package decomp

import (
	"math/rand"
	"testing"

	"probnucleus/internal/graph"
)

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if rng.Float64() < p {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// --- k-core ---

func TestCoreNumbersComplete(t *testing.T) {
	for n := 2; n <= 7; n++ {
		core := CoreNumbers(completeGraph(n))
		for v, c := range core {
			if c != n-1 {
				t.Errorf("K%d: core(%d) = %d, want %d", n, v, c, n-1)
			}
		}
	}
}

func TestCoreNumbersPathAndStar(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		_ = b.AddEdge(i, i+1)
	}
	for _, c := range CoreNumbers(b.Build()) {
		if c != 1 {
			t.Errorf("path core = %d, want 1", c)
		}
	}
	s := graph.NewBuilder(6)
	for i := int32(1); i < 6; i++ {
		_ = s.AddEdge(0, i)
	}
	for _, c := range CoreNumbers(s.Build()) {
		if c != 1 {
			t.Errorf("star core = %d, want 1", c)
		}
	}
}

func TestCoreNumbersTwoLevels(t *testing.T) {
	// K4 with a pendant path: clique vertices are 3-core, tail is 1-core.
	b := graph.NewBuilder(6)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	_ = b.AddEdge(3, 4)
	_ = b.AddEdge(4, 5)
	core := CoreNumbers(b.Build())
	want := []int{3, 3, 3, 3, 1, 1}
	for v, c := range core {
		if c != want[v] {
			t.Errorf("core(%d) = %d, want %d", v, c, want[v])
		}
	}
}

// bruteCore computes core numbers by repeatedly testing subgraphs.
func bruteCore(g *graph.Graph) []int {
	n := g.NumVertices()
	core := make([]int, n)
	for k := 1; k <= g.MaxDegree(); k++ {
		// Iteratively remove vertices with degree < k.
		alive := make([]bool, n)
		deg := make([]int, n)
		for v := 0; v < n; v++ {
			alive[v] = true
			deg[v] = g.Degree(int32(v))
		}
		for changed := true; changed; {
			changed = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] < k {
					alive[v] = false
					changed = true
					for _, w := range g.Neighbors(int32(v)) {
						if alive[w] {
							deg[w]--
						}
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
			}
		}
	}
	return core
}

func TestCoreNumbersAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 40; iter++ {
		g := randomGraph(rng, 20, 0.25)
		got := CoreNumbers(g)
		want := bruteCore(g)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("iter %d: core(%d) = %d, want %d", iter, v, got[v], want[v])
			}
		}
	}
}

// --- k-truss ---

func TestTrussNumbersComplete(t *testing.T) {
	// In K_n each edge lies in n-2 triangles; trussness (support form) = n-2.
	for n := 3; n <= 7; n++ {
		_, truss := TrussNumbers(completeGraph(n))
		for e, tv := range truss {
			if tv != n-2 {
				t.Errorf("K%d: truss(edge %d) = %d, want %d", n, e, tv, n-2)
			}
		}
	}
}

func TestTrussNumbersTriangleChain(t *testing.T) {
	// Two triangles sharing an edge: every edge has support ≥ 1 within the
	// whole graph; the shared edge has support 2 but its triangles die at
	// level 2, so all edges get trussness 1.
	b := graph.NewBuilder(4)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}} {
		_ = b.AddEdge(e[0], e[1])
	}
	_, truss := TrussNumbers(b.Build())
	for e, tv := range truss {
		if tv != 1 {
			t.Errorf("truss(edge %d) = %d, want 1", e, tv)
		}
	}
}

// bruteTruss computes trussness by iterated subgraph fixpoints.
func bruteTruss(g *graph.Graph) map[graph.Edge]int {
	out := make(map[graph.Edge]int)
	for _, e := range g.Edges() {
		out[e] = 0
	}
	maxSup := 0
	for _, e := range g.Edges() {
		if s := len(g.CommonNeighbors(e.U, e.V)); s > maxSup {
			maxSup = s
		}
	}
	for k := 1; k <= maxSup; k++ {
		alive := make(map[graph.Edge]bool)
		for _, e := range g.Edges() {
			alive[e] = true
		}
		for changed := true; changed; {
			changed = false
			for e := range alive {
				if !alive[e] {
					continue
				}
				sup := 0
				for _, w := range g.CommonNeighbors(e.U, e.V) {
					if alive[graph.Edge{U: e.U, V: w}.Canon()] && alive[graph.Edge{U: e.V, V: w}.Canon()] {
						sup++
					}
				}
				if sup < k {
					delete(alive, e)
					changed = true
				}
			}
		}
		for e := range alive {
			out[e] = k
		}
	}
	return out
}

func TestTrussNumbersAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 30; iter++ {
		g := randomGraph(rng, 14, 0.4)
		ei, got := TrussNumbers(g)
		want := bruteTruss(g)
		for i, e := range ei.Edges {
			if got[i] != want[e] {
				t.Fatalf("iter %d: truss(%v) = %d, want %d", iter, e, got[i], want[e])
			}
		}
	}
}

// --- (3,4)-nucleus ---

func TestNucleusNumbersComplete(t *testing.T) {
	// In K_n every triangle is in n-3 4-cliques; nucleusness = n-3.
	for n := 4; n <= 8; n++ {
		_, nu := NucleusNumbers(completeGraph(n))
		for tr, v := range nu {
			if v != n-3 {
				t.Errorf("K%d: nu(triangle %d) = %d, want %d", n, tr, v, n-3)
			}
		}
	}
}

func TestNucleusNumbersNoCliques(t *testing.T) {
	// A single triangle has no 4-cliques: nucleusness 0.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(0, 2)
	_, nu := NucleusNumbers(b.Build())
	if len(nu) != 1 || nu[0] != 0 {
		t.Errorf("nu = %v, want [0]", nu)
	}
}

func TestNucleusNumbersTwoCliquesSharedTriangle(t *testing.T) {
	// Two K4s sharing a triangle (K5 minus one edge): every triangle in a
	// K4 has support exactly 1 at level 1 — the whole graph is a 1-nucleus
	// but nothing more: nucleusness 1 everywhere.
	b := graph.NewBuilder(5)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if u == 3 && v == 4 {
				continue
			}
			_ = b.AddEdge(u, v)
		}
	}
	ti, nu := NucleusNumbers(b.Build())
	for t2 := 0; t2 < ti.Len(); t2++ {
		if nu[t2] != 1 {
			t.Errorf("nu(%v) = %d, want 1", ti.Tris[t2], nu[t2])
		}
	}
}

// bruteNucleus computes nucleusness by iterated fixpoints over triangles.
func bruteNucleus(g *graph.Graph) map[graph.Triangle]int {
	ti := newIndex(g)
	out := make(map[graph.Triangle]int)
	maxSup := 0
	for t := 0; t < ti.Len(); t++ {
		out[ti.Tris[t]] = 0
		if len(ti.Comps[t]) > maxSup {
			maxSup = len(ti.Comps[t])
		}
	}
	for k := 1; k <= maxSup; k++ {
		alive := make(map[graph.Triangle]bool, ti.Len())
		for t := 0; t < ti.Len(); t++ {
			alive[ti.Tris[t]] = true
		}
		for changed := true; changed; {
			changed = false
			for t := 0; t < ti.Len(); t++ {
				tri := ti.Tris[t]
				if !alive[tri] {
					continue
				}
				sup := 0
				for _, z := range ti.Comps[t] {
					if alive[graph.MakeTriangle(tri.A, tri.B, z)] &&
						alive[graph.MakeTriangle(tri.A, tri.C, z)] &&
						alive[graph.MakeTriangle(tri.B, tri.C, z)] {
						sup++
					}
				}
				if sup < k {
					delete(alive, tri)
					changed = true
				}
			}
		}
		for tri := range alive {
			out[tri] = k
		}
	}
	return out
}

func TestNucleusNumbersAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 30; iter++ {
		g := randomGraph(rng, 12, 0.5)
		ti, got := NucleusNumbers(g)
		want := bruteNucleus(g)
		for t2 := 0; t2 < ti.Len(); t2++ {
			if got[t2] != want[ti.Tris[t2]] {
				t.Fatalf("iter %d: nu(%v) = %d, want %d", iter, ti.Tris[t2], got[t2], want[ti.Tris[t2]])
			}
		}
	}
}

func TestNucleusHierarchyContainment(t *testing.T) {
	// Core ⊇ truss ⊇ nucleus strength ordering: in any graph, the triangles
	// of a k-(3,4)-nucleus lie inside the k-truss and k-core levels (the
	// paper cites (3,4) as strictly stronger). We check the numeric shadow:
	// ν(△) ≤ min trussness of its edges ≤ min core of its vertices.
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 20; iter++ {
		g := randomGraph(rng, 15, 0.45)
		ti, nu := NucleusNumbers(g)
		ei, truss := TrussNumbers(g)
		core := CoreNumbers(g)
		for t2 := 0; t2 < ti.Len(); t2++ {
			tri := ti.Tris[t2]
			e1, _ := ei.ID(tri.A, tri.B)
			e2, _ := ei.ID(tri.A, tri.C)
			e3, _ := ei.ID(tri.B, tri.C)
			minT := truss[e1]
			if truss[e2] < minT {
				minT = truss[e2]
			}
			if truss[e3] < minT {
				minT = truss[e3]
			}
			if nu[t2] > minT {
				t.Errorf("nu(%v) = %d > min edge trussness %d", tri, nu[t2], minT)
			}
			minC := core[tri.A]
			if core[tri.B] < minC {
				minC = core[tri.B]
			}
			if core[tri.C] < minC {
				minC = core[tri.C]
			}
			// trussness(e) ≤ core(endpoints)-1; nucleus ≤ truss ≤ core-1.
			if nu[t2] > minC {
				t.Errorf("nu(%v) = %d > min core %d", tri, nu[t2], minC)
			}
		}
	}
}

func TestKNucleiComplete(t *testing.T) {
	g := completeGraph(6) // every triangle has nucleusness 3
	ti, nu := NucleusNumbers(g)
	inc := NewTriIncidence(ti, g)
	for k := 0; k <= 3; k++ {
		nuclei := KNuclei(ti, inc, nu, k)
		if len(nuclei) != 1 {
			t.Fatalf("k=%d: %d nuclei, want 1", k, len(nuclei))
		}
		if got := len(nuclei[0].Triangles); got != 20 {
			t.Errorf("k=%d: %d triangles, want 20", k, got)
		}
		if got := len(nuclei[0].Vertices); got != 6 {
			t.Errorf("k=%d: %d vertices, want 6", k, got)
		}
		if got := len(nuclei[0].Edges); got != 15 {
			t.Errorf("k=%d: %d edges, want 15", k, got)
		}
	}
	if nuclei := KNuclei(ti, inc, nu, 4); len(nuclei) != 0 {
		t.Errorf("k=4: %d nuclei, want 0", len(nuclei))
	}
}

func TestKNucleiSeparateComponents(t *testing.T) {
	// Two disjoint K4s: two 1-nuclei.
	b := graph.NewBuilder(8)
	for base := int32(0); base <= 4; base += 4 {
		for u := base; u < base+4; u++ {
			for v := u + 1; v < base+4; v++ {
				_ = b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	ti, nu := NucleusNumbers(g)
	nuclei := KNuclei(ti, NewTriIncidence(ti, g), nu, 1)
	if len(nuclei) != 2 {
		t.Fatalf("%d nuclei, want 2", len(nuclei))
	}
	for _, nuc := range nuclei {
		if len(nuc.Vertices) != 4 || len(nuc.Triangles) != 4 {
			t.Errorf("nucleus = %d vertices/%d triangles, want 4/4", len(nuc.Vertices), len(nuc.Triangles))
		}
	}
}

func TestKNucleiExcludesIsolatedTriangles(t *testing.T) {
	// A K4 plus a disjoint triangle: at k=0 only the K4's triangles form a
	// nucleus (a nucleus is a union of 4-cliques).
	b := graph.NewBuilder(7)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	_ = b.AddEdge(4, 5)
	_ = b.AddEdge(5, 6)
	_ = b.AddEdge(4, 6)
	g := b.Build()
	ti, nu := NucleusNumbers(g)
	nuclei := KNuclei(ti, NewTriIncidence(ti, g), nu, 0)
	if len(nuclei) != 1 {
		t.Fatalf("%d nuclei, want 1", len(nuclei))
	}
	if len(nuclei[0].Triangles) != 4 {
		t.Errorf("%d triangles, want 4 (isolated triangle excluded)", len(nuclei[0].Triangles))
	}
}

func TestMaxNucleusness(t *testing.T) {
	if got := MaxNucleusness(nil); got != 0 {
		t.Errorf("MaxNucleusness(nil) = %d", got)
	}
	if got := MaxNucleusness([]int{0, 3, 1}); got != 3 {
		t.Errorf("MaxNucleusness = %d, want 3", got)
	}
}
