package graph

import (
	"cmp"
	"slices"

	"probnucleus/internal/par"
)

// Triangle is a 3-clique with vertices in increasing order A < B < C.
type Triangle struct {
	A, B, C int32
}

// MakeTriangle returns the canonical (sorted) triangle on u, v, w.
func MakeTriangle(u, v, w int32) Triangle {
	if u > v {
		u, v = v, u
	}
	if v > w {
		v, w = w, v
	}
	if u > v {
		u, v = v, u
	}
	return Triangle{u, v, w}
}

// Triangles enumerates every triangle of g exactly once, in no particular
// order, using the oriented "forward" algorithm: each edge is directed from
// the endpoint that is earlier in a degree ordering, and triangles are found
// by intersecting out-neighbourhoods. Complexity O(m^{3/2}).
func (g *Graph) Triangles() []Triangle {
	var out []Triangle
	g.ForEachTriangle(func(t Triangle) { out = append(out, t) })
	return out
}

// ForEachTriangle calls fn once per triangle of g.
func (g *Graph) ForEachTriangle(fn func(Triangle)) {
	pool := par.NewPool(1)
	fwd := g.forwardAdjacency(pool)
	var scratch []int32
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		scratch = trianglesRootedAt(fwd, v, scratch, fn)
	}
}

// forwardAdjacency returns, for every vertex, its out-neighbours under the
// degeneracy-rank orientation, sorted by id, laid out CSR-style in one flat
// backing array (count pass, prefix sum, fill pass — no per-vertex
// allocations). Each slot is written only by the worker that owns the
// vertex; the passes run on the caller's pool.
func (g *Graph) forwardAdjacency(pool *par.Pool) [][]int32 {
	n := g.NumVertices()
	rank := g.degeneracyRank()
	fwd := make([][]int32, n)
	counts := make([]int, n+1)
	pool.For(n, func(vi int) {
		v := int32(vi)
		c := 0
		for _, w := range g.Neighbors(v) {
			if rank[v] < rank[w] {
				c++
			}
		}
		counts[vi+1] = c
	})
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	flat := make([]int32, counts[n])
	pool.For(n, func(vi int) {
		v := int32(vi)
		dst := flat[counts[vi]:counts[vi]:counts[vi+1]]
		for _, w := range g.Neighbors(v) {
			if rank[v] < rank[w] {
				dst = append(dst, w)
			}
		}
		fwd[vi] = dst
	})
	return fwd
}

// trianglesRootedAt emits the triangles rooted at v under the forward
// orientation, in the canonical nested order (w along fwd[v], then x along
// the intersection). Every enumerator — serial or sharded — goes through
// this one loop, which is what makes their triangle orders identical.
// scratch stages each intersection and is returned (possibly grown) for
// reuse by the caller.
func trianglesRootedAt(fwd [][]int32, v int32, scratch []int32, fn func(Triangle)) []int32 {
	for _, w := range fwd[v] {
		scratch = IntersectSortedInto(scratch[:0], fwd[v], fwd[w])
		for _, x := range scratch {
			fn(MakeTriangle(v, w, x))
		}
	}
	return scratch
}

// degeneracyRank returns a position for every vertex in a smallest-degree-
// last ordering (core ordering). Orienting edges by increasing rank bounds
// out-degrees by the graph degeneracy, which keeps clique enumeration cheap
// on skewed-degree graphs.
func (g *Graph) degeneracyRank() []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		if int(deg[v]) > maxDeg {
			maxDeg = int(deg[v])
		}
	}
	// Bucket queue over current degrees.
	buckets := make([][]int32, maxDeg+1)
	for v := int32(0); int(v) < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	rank := make([]int32, n)
	removed := make([]bool, n)
	next := int32(0)
	cur := 0
	for next < int32(n) {
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		if cur > maxDeg {
			break
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if removed[v] || deg[v] != int32(cur) {
			continue // stale bucket entry
		}
		removed[v] = true
		rank[v] = next
		next++
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
				if int(deg[w]) < cur {
					cur = int(deg[w])
				}
			}
		}
	}
	return rank
}

// TriangleIndex assigns dense ids to the triangles of a graph and supports
// lookup by vertex triple. It also stores, for each triangle, the list of
// "completion" vertices z such that the triangle plus z forms a 4-clique.
//
// Every index is a root over one graph, built by NewTriangleIndex or
// assembled from stored parts by IndexFromParts (internal/artifact's
// loader), and both kinds answer ID the same way: by binary search over
// byTri, the triangle ids in lexicographic order.
//
// An index is immutable once built: every field is written only during
// construction and only read afterwards. Concurrent lookups from any number
// of goroutines are therefore safe without synchronisation, which is what
// lets one prepared artifact (core.Prepared, the registry's cached graphs)
// serve overlapping requests on different engine shards. The mutable state a
// decomposition needs (peeling counters, candidate stamps) lives in
// per-request scratch.
type TriangleIndex struct {
	Tris []Triangle
	// byTri is the permutation of triangle ids in lexicographic (A, B, C)
	// order, the table ID searches.
	byTri []int32
	// Comps[t] lists the completion vertices of triangle t in increasing
	// order; {t.A, t.B, t.C, z} is a 4-clique of the graph for each z.
	Comps [][]int32
}

// Compare orders triangles lexicographically by (A, B, C), returning a
// negative, zero, or positive value as t sorts before, equal to, or after u.
func (t Triangle) Compare(u Triangle) int {
	switch {
	case t.A != u.A:
		return int(t.A) - int(u.A)
	case t.B != u.B:
		return int(t.B) - int(u.B)
	default:
		return int(t.C) - int(u.C)
	}
}

// ByTri returns the triangle ids permuted into lexicographic (A, B, C)
// triangle order: the lookup table IndexFromParts takes, which serializers
// store so a loaded index needs no sort. The slice is the index's own and
// must not be modified.
func (ti *TriangleIndex) ByTri() []int32 { return ti.byTri }

// IndexFromParts assembles a TriangleIndex directly from its component
// arrays: tris in id order, comps aligned with tris, and byTri the
// lexicographic id permutation (as ByTri returns it). The slices are taken
// by reference, so callers may back them with a read-only mapping
// (internal/artifact's zero-copy loader). Nothing is validated; the caller
// promises tris/comps/byTri are mutually consistent.
func IndexFromParts(tris []Triangle, comps [][]int32, byTri []int32) *TriangleIndex {
	return &TriangleIndex{Tris: tris, Comps: comps, byTri: byTri}
}

// arenaRun locates one item's output inside a per-worker arena: the run of
// n elements that worker appended starting at off. Recording runs instead of
// slices keeps the records valid across arena growth (offsets survive a
// reallocating append; slice headers would not).
type arenaRun struct {
	worker int32
	off    int32
	n      int32
}

// NewTriangleIndex enumerates the triangles of g on pool, assigns ids, and
// computes each triangle's 4-clique completion list and the lexicographic
// id order ID searches. A one-worker pool (par.NewPool(1), which starts no
// goroutine) builds serially; every pass of a wider one reuses the pool's
// parked helpers instead of spawning goroutines, which matters for servers
// building many indices on a shared pool.
//
// Both variable-length stages — triangle enumeration and 4-clique completion
// lists — run as a single pass each: every worker appends into its own arena
// and records an (worker, off, len) run per vertex/triangle, and a serial
// stitch copies the runs out in ascending vertex (resp. triangle-id) order.
// Because the stitch order is fixed, the resulting index (triangle ids, Tris
// order, Comps contents) is byte-identical for every worker count and chunk
// schedule, and equal to the two-pass reference builder of the tests.
func NewTriangleIndex(g *Graph, pool *par.Pool) *TriangleIndex {
	n := g.NumVertices()
	fwd := g.forwardAdjacency(pool)
	nw := pool.Workers()
	arenas := make([][]Triangle, nw)
	runs := make([]arenaRun, n)
	scratch := make([][]int32, nw)
	// One hoisted emit closure per worker, not per vertex: the enumeration
	// body itself must not allocate.
	emit := make([]func(Triangle), nw)
	for w := range emit {
		w := w
		emit[w] = func(t Triangle) { arenas[w] = append(arenas[w], t) }
	}
	pool.ForWorker(n, func(w, vi int) {
		off := len(arenas[w])
		scratch[w] = trianglesRootedAt(fwd, int32(vi), scratch[w], emit[w])
		runs[vi] = arenaRun{int32(w), int32(off), int32(len(arenas[w]) - off)}
	})
	total := 0
	for vi := range runs {
		total += int(runs[vi].n)
	}
	ti := &TriangleIndex{Tris: make([]Triangle, 0, total)}
	for vi := range runs {
		r := runs[vi]
		ti.Tris = append(ti.Tris, arenas[r.worker][r.off:r.off+r.n]...)
	}
	// Completion lists, fused: one intersection per triangle into the
	// worker's arena, then a prefix sum over the recorded run lengths places
	// each list in the flat CSR backing and the stitch copies runs over in id
	// order.
	m := len(ti.Tris)
	ti.Comps = make([][]int32, m)
	compArenas := make([][]int32, nw)
	compRuns := make([]arenaRun, m)
	pool.ForWorker(m, func(w, i int) {
		t := ti.Tris[i]
		off := len(compArenas[w])
		compArenas[w] = Intersect3SortedInto(compArenas[w], g.Neighbors(t.A), g.Neighbors(t.B), g.Neighbors(t.C))
		compRuns[i] = arenaRun{int32(w), int32(off), int32(len(compArenas[w]) - off)}
	})
	counts := make([]int, m+1)
	for i := 0; i < m; i++ {
		counts[i+1] = counts[i] + int(compRuns[i].n)
	}
	flat := make([]int32, counts[m])
	pool.For(m, func(i int) {
		r := compRuns[i]
		dst := flat[counts[i]:counts[i+1]:counts[i+1]]
		copy(dst, compArenas[r.worker][r.off:r.off+r.n])
		ti.Comps[i] = dst
	})
	ti.byTri = lexOrder(ti.Tris, n, pool)
	return ti
}

// lexOrder returns the ids of tris, triangles over n vertices, in
// lexicographic (A, B, C) order: a counting sort by A, then each A-bucket
// sorted on pool by the packed (B, C) key. Keys are distinct within a
// bucket, so the order does not depend on the schedule.
func lexOrder(tris []Triangle, n int, pool *par.Pool) []int32 {
	type entry struct {
		bc uint64
		id int32
	}
	// Counts go to off[a+2], so after the prefix sum off[a+1] is bucket a's
	// start and the fill's post-increments leave it at a's end.
	off := make([]int32, n+2)
	for _, t := range tris {
		off[t.A+2]++
	}
	for a := 2; a < n+2; a++ {
		off[a] += off[a-1]
	}
	ents := make([]entry, len(tris))
	for id, t := range tris {
		ents[off[t.A+1]] = entry{uint64(uint32(t.B))<<32 | uint64(uint32(t.C)), int32(id)}
		off[t.A+1]++
	}
	byTri := make([]int32, len(tris))
	pool.For(n, func(a int) {
		b := ents[off[a]:off[a+1]]
		if len(b) > 1 {
			slices.SortFunc(b, func(x, y entry) int { return cmp.Compare(x.bc, y.bc) })
		}
		for i, e := range b {
			byTri[int(off[a])+i] = e.id
		}
	})
	return byTri
}

// Len returns the number of triangles.
func (ti *TriangleIndex) Len() int { return len(ti.Tris) }

// ID returns the id of triangle t and whether it exists, by binary search
// over the lexicographic id order.
func (ti *TriangleIndex) ID(t Triangle) (int32, bool) {
	lo, hi := 0, len(ti.byTri)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ti.Tris[ti.byTri[mid]].Compare(t) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ti.byTri) && ti.Tris[ti.byTri[lo]] == t {
		return ti.byTri[lo], true
	}
	return 0, false
}

// CliqueCount returns the total number of 4-cliques in the indexed graph.
// Every 4-clique contains exactly four triangles, each completed by the
// remaining vertex, so the sum of completion-list lengths is 4 times the
// number of 4-cliques.
func (ti *TriangleIndex) CliqueCount() int {
	sum := 0
	for _, zs := range ti.Comps {
		sum += len(zs)
	}
	return sum / 4
}
