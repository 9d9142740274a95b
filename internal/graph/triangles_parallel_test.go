package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"probnucleus/internal/par"
)

var diffWorkerCounts = []int{1, 2, 8}

// newTriangleIndexTwoPass is the pre-fusion builder — per-vertex triangle
// slices merged serially, CSR completion lists laid out by a counting pass
// plus a fill pass that re-runs each intersection, and the lookup order by
// comparator sort. It is kept as the differential oracle for the fused
// NewTriangleIndex: both must produce byte-identical indices on every graph
// and worker count.
func newTriangleIndexTwoPass(g *Graph, pool *par.Pool) *TriangleIndex {
	n := g.NumVertices()
	fwd := g.forwardAdjacency(pool)
	perVertex := make([][]Triangle, n)
	scratch := make([][]int32, pool.Workers())
	pool.ForWorker(n, func(w, vi int) {
		var out []Triangle
		scratch[w] = trianglesRootedAt(fwd, int32(vi), scratch[w], func(t Triangle) { out = append(out, t) })
		perVertex[vi] = out
	})
	total := 0
	for _, s := range perVertex {
		total += len(s)
	}
	ti := &TriangleIndex{Tris: make([]Triangle, 0, total)}
	for _, s := range perVertex {
		ti.Tris = append(ti.Tris, s...)
	}
	ti.Comps = make([][]int32, len(ti.Tris))
	counts := make([]int, len(ti.Tris)+1)
	pool.For(len(ti.Tris), func(i int) {
		t := ti.Tris[i]
		counts[i+1] = intersect3SortedLen(g.Neighbors(t.A), g.Neighbors(t.B), g.Neighbors(t.C))
	})
	for i := 0; i < len(ti.Tris); i++ {
		counts[i+1] += counts[i]
	}
	flat := make([]int32, counts[len(ti.Tris)])
	pool.For(len(ti.Tris), func(i int) {
		t := ti.Tris[i]
		dst := flat[counts[i]:counts[i]:counts[i+1]]
		ti.Comps[i] = Intersect3SortedInto(dst, g.Neighbors(t.A), g.Neighbors(t.B), g.Neighbors(t.C))
	})
	ti.byTri = comparatorOrder(ti.Tris)
	return ti
}

// newTriangleIndexWorkers builds g's index on a fresh pool of w workers.
func newTriangleIndexWorkers(g *Graph, w int) *TriangleIndex {
	pool := par.NewPool(w)
	defer pool.Close()
	return NewTriangleIndex(g, pool)
}

// intersect3SortedLen returns the size of the three-way intersection without
// materializing it — the counting pass of the two-pass reference builder.
func intersect3SortedLen(a, b, c []int32) int {
	n := 0
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) && k < len(c) {
		x, y, z := a[i], b[j], c[k]
		if x == y && y == z {
			n++
			i++
			j++
			k++
			continue
		}
		m := x
		if y > m {
			m = y
		}
		if z > m {
			m = z
		}
		for i < len(a) && a[i] < m {
			i++
		}
		for j < len(b) && b[j] < m {
			j++
		}
		for k < len(c) && c[k] < m {
			k++
		}
	}
	return n
}

func randomTestGraph(rng *rand.Rand, n int, density float64) *Graph {
	b := NewBuilder(n)
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if rng.Float64() < density {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// TestTriangleIndexParallelMatchesSerial: the index built by any worker
// count is byte-identical to the serial one — same triangle order, same ids,
// same completion lists.
func TestTriangleIndexParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 8; iter++ {
		g := randomTestGraph(rng, 40, 0.25)
		want := newTriangleIndexWorkers(g, 1)
		for _, w := range diffWorkerCounts {
			got := newTriangleIndexWorkers(g, w)
			if !reflect.DeepEqual(got.Tris, want.Tris) {
				t.Fatalf("iter %d workers=%d: triangle order differs", iter, w)
			}
			if !reflect.DeepEqual(got.Comps, want.Comps) {
				t.Fatalf("iter %d workers=%d: completion lists differ", iter, w)
			}
			for i, tri := range want.Tris {
				id, ok := got.ID(tri)
				if !ok || id != int32(i) {
					t.Fatalf("iter %d workers=%d: id of %v = (%d,%v), want (%d,true)",
						iter, w, tri, id, ok, i)
				}
			}
		}
	}
}

// TestTriangleIndexParallelEmptyAndTiny: degenerate inputs must not panic or
// diverge regardless of worker count.
func TestTriangleIndexParallelEmptyAndTiny(t *testing.T) {
	empty := NewBuilder(0).Build()
	path := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	k4 := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	for _, g := range []*Graph{empty, path, k4} {
		want := newTriangleIndexWorkers(g, 1)
		for _, w := range diffWorkerCounts {
			got := newTriangleIndexWorkers(g, w)
			if got.Len() != want.Len() {
				t.Fatalf("workers=%d: %d triangles, want %d", w, got.Len(), want.Len())
			}
			if !reflect.DeepEqual(got.Tris, want.Tris) || !reflect.DeepEqual(got.Comps, want.Comps) {
				t.Fatalf("workers=%d: index differs on tiny graph", w)
			}
		}
	}
}

// TestTriangleIndexFusedMatchesTwoPass: the fused single-pass builder
// (per-worker arenas + run records + id-order stitch, one intersection per
// triangle) produces an index byte-identical to the retired two-pass builder
// (per-vertex slices, count-then-fill completion layout) on every graph shape
// and worker count — including degenerate inputs where chunking is uneven.
func TestTriangleIndexFusedMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	graphs := []*Graph{
		NewBuilder(0).Build(),
		FromEdges(3, []Edge{{0, 1}, {1, 2}}),
		FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}),
	}
	for iter := 0; iter < 6; iter++ {
		graphs = append(graphs, randomTestGraph(rng, 40, 0.25))
	}
	for gi, g := range graphs {
		for _, w := range diffWorkerCounts {
			pool := par.NewPool(w)
			want := newTriangleIndexTwoPass(g, pool)
			got := NewTriangleIndex(g, pool)
			pool.Close()
			if !reflect.DeepEqual(got.Tris, want.Tris) {
				t.Fatalf("graph %d workers=%d: fused triangle order differs", gi, w)
			}
			if !reflect.DeepEqual(got.Comps, want.Comps) {
				t.Fatalf("graph %d workers=%d: fused completion lists differ", gi, w)
			}
			if !slices.Equal(got.byTri, want.byTri) {
				t.Fatalf("graph %d workers=%d: fused lookup order differs", gi, w)
			}
			for i, tri := range want.Tris {
				id, ok := got.ID(tri)
				if !ok || id != int32(i) {
					t.Fatalf("graph %d workers=%d: id of %v = (%d,%v), want (%d,true)",
						gi, w, tri, id, ok, i)
				}
			}
		}
	}
}

// TestTriangleIndexFusedAllocsBelowTwoPass is the memory gate of the fused
// builder: enumerating once into per-worker arenas must allocate strictly
// fewer times than the retired count-then-fill two-pass scheme on the same
// graph and pool — the fusion exists to delete the second pass's per-vertex
// recounting and its interleaved growth, so a regression here means the
// arenas stopped amortizing.
func TestTriangleIndexFusedAllocsBelowTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := randomTestGraph(rng, 80, 0.2)
	pool := par.NewPool(2)
	defer pool.Close()
	fused := testing.AllocsPerRun(5, func() { NewTriangleIndex(g, pool) })
	twoPass := testing.AllocsPerRun(5, func() { newTriangleIndexTwoPass(g, pool) })
	if fused >= twoPass {
		t.Fatalf("fused builder allocates %.0f times, two-pass %.0f; fusion must allocate less",
			fused, twoPass)
	}
	t.Logf("allocs per build: fused %.0f, two-pass %.0f", fused, twoPass)
}

// TestFourCliquesParallelMatchesSerial: the 4-cliques read from the
// completion lists are identical for indexes built with every worker count,
// and number CliqueCount.
func TestFourCliquesParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 6; iter++ {
		g := randomTestGraph(rng, 30, 0.35)
		ti := newTriangleIndexWorkers(g, 1)
		want := cliquesOf(ti)
		for _, w := range diffWorkerCounts {
			got := cliquesOf(newTriangleIndexWorkers(g, w))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d workers=%d: 4-clique lists differ (%d vs %d)",
					iter, w, len(got), len(want))
			}
		}
		if len(want) != ti.CliqueCount() {
			t.Fatalf("iter %d: %d cliques != CliqueCount %d",
				iter, len(want), ti.CliqueCount())
		}
	}
}
