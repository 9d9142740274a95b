package graph

import (
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

// Vertices returns the triangle's vertices.
func (t Triangle) Vertices() [3]int32 { return [3]int32{t.A, t.B, t.C} }

// Contains reports whether v is a vertex of t.
func (t Triangle) Contains(v int32) bool { return v == t.A || v == t.B || v == t.C }

// Opposite returns the triangle obtained by replacing vertex `out` of t with
// `in`. It panics if out is not a vertex of t.
func (t Triangle) Opposite(out, in int32) Triangle {
	switch out {
	case t.A:
		return MakeTriangle(t.B, t.C, in)
	case t.B:
		return MakeTriangle(t.A, t.C, in)
	case t.C:
		return MakeTriangle(t.A, t.B, in)
	}
	panic("graph: Opposite called with non-member vertex")
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
// An index is either a root (built by NewTriangleIndex over a graph, with a
// hash map for lookup) or a view built by SubIndex: the restriction of a
// parent index to an edge-subgraph, which answers lookups through the parent
// plus an id-translation array instead of its own map.
//
// A root index is immutable once built — every field, including the lookup
// map and the completion lists, is written only during construction and only
// read afterwards. Concurrent lookups from any number of goroutines are
// therefore safe without synchronisation, which is what lets one prepared
// artifact (core.Prepared, the registry's cached graphs) serve overlapping
// requests on different engine shards. The mutable state a decomposition
// needs — peeling counters, sub-index translation arrays — lives in
// per-request scratch: SubIndex allocates a fresh view for its caller and
// never writes through to the parent.
type TriangleIndex struct {
	Tris []Triangle
	ids  map[Triangle]int32
	// byTri, on map-free root indexes (loaded artifacts), is the
	// permutation of triangle ids in lexicographic (A, B, C) order: ID
	// answers lookups by binary search over it instead of through the ids
	// map. Exactly one of ids/byTri is set on a root index; the lookup
	// results are identical either way.
	byTri []int32
	// Comps[t] lists the completion vertices of triangle t in increasing
	// order; {t.A, t.B, t.C, z} is a 4-clique of the graph for each z.
	Comps [][]int32
	// Views only: the index this one restricts, and the translation from
	// parent triangle ids to view ids (-1 for triangles absent from the
	// view).
	parent *TriangleIndex
	subID  []int32
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

// SortedIDs returns the triangle ids permuted into lexicographic (A, B, C)
// triangle order — the lookup table IndexFromParts accepts in place of the
// hash map, precomputed at serialization time so a loaded index answers ID
// by binary search without rebuilding a map.
func (ti *TriangleIndex) SortedIDs() []int32 {
	ids := make([]int32, len(ti.Tris))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return ti.Tris[a].Compare(ti.Tris[b]) })
	return ids
}

// IndexFromParts assembles a root TriangleIndex directly from its component
// arrays: tris in id order, comps aligned with tris, and byTri the
// lexicographic id permutation (as produced by SortedIDs). No hash map is
// built — ID answers by binary search over byTri — and the slices are taken
// by reference, so callers may back them with a read-only mapping
// (internal/artifact's zero-copy loader). Nothing is validated; the caller
// promises tris/comps/byTri are mutually consistent.
func IndexFromParts(tris []Triangle, comps [][]int32, byTri []int32) *TriangleIndex {
	return &TriangleIndex{Tris: tris, Comps: comps, byTri: byTri}
}

// NewTriangleIndex enumerates the triangles of g, assigns ids, and computes
// each triangle's 4-clique completion list.
func NewTriangleIndex(g *Graph) *TriangleIndex {
	return NewTriangleIndexParallel(g, 1)
}

// NewTriangleIndexParallel is NewTriangleIndex with the enumeration sharded
// across a worker pool (workers < 1 means all available parallelism). The
// degeneracy-ordered vertex range is split into chunks, each worker collects
// the triangles rooted at its vertices in the serial nested order, and the
// per-vertex slices are merged in ascending vertex order — so the resulting
// index (triangle ids, Tris order, Comps contents) is byte-identical to the
// serial one for every worker count.
func NewTriangleIndexParallel(g *Graph, workers int) *TriangleIndex {
	pool := par.NewPool(workers)
	defer pool.Close()
	return NewTriangleIndexPool(g, pool)
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

// NewTriangleIndexPool is NewTriangleIndexParallel on a caller-owned worker
// pool: the parallel passes (forward-adjacency count/fill, fused rooted
// enumeration, fused completion fill) all reuse the pool's parked helpers
// instead of spawning goroutines per pass, which matters for servers
// building many indices on a shared pool.
//
// Both variable-length stages — triangle enumeration and 4-clique completion
// lists — run as a single pass each: every worker appends into its own arena
// and records an (worker, off, len) run per vertex/triangle, and a serial
// stitch copies the runs out in ascending vertex (resp. triangle-id) order.
// That replaces the old per-vertex slice allocations and the old
// count-then-fill completion layout, which intersected every triangle's
// neighbourhoods twice. Because the stitch order is fixed, the resulting
// index (triangle ids, Tris order, Comps contents) is byte-identical to the
// two-pass reference builder of the tests for every worker count and chunk
// schedule.
func NewTriangleIndexPool(g *Graph, pool *par.Pool) *TriangleIndex {
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
	ti := &TriangleIndex{
		Tris: make([]Triangle, 0, total),
		ids:  make(map[Triangle]int32, total),
	}
	for vi := range runs {
		r := runs[vi]
		for _, t := range arenas[r.worker][r.off : r.off+r.n] {
			ti.ids[t] = int32(len(ti.Tris))
			ti.Tris = append(ti.Tris, t)
		}
	}
	// Completion lists, fused: one intersection per triangle into the
	// worker's arena, then a prefix sum over the recorded run lengths places
	// each list in the flat CSR backing and the stitch copies runs over in id
	// order. The two-pass layout ran a counting intersection and then
	// Intersect3SortedInto — the same three-way merge twice per triangle.
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
	return ti
}

// Len returns the number of triangles.
func (ti *TriangleIndex) Len() int { return len(ti.Tris) }

// ID returns the id of triangle t and whether it exists. Views translate
// through their parent index, so no per-view hash map is ever built; root
// indexes answer from their hash map, or — when loaded from an artifact —
// by binary search over the lexicographic id permutation.
func (ti *TriangleIndex) ID(t Triangle) (int32, bool) {
	if ti.parent != nil {
		pid, ok := ti.parent.ID(t)
		if !ok {
			return 0, false
		}
		id := ti.subID[pid]
		return id, id >= 0
	}
	if ti.ids != nil {
		id, ok := ti.ids[t]
		return id, ok
	}
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

// SubIndexScratch holds the reusable buffers behind TriangleIndex.SubIndex.
// One scratch serves one view at a time: building a new view on the same
// scratch invalidates the previous one. Callers that restrict repeatedly —
// the exact oracles' per-world restrictions of a materialized world — keep
// one scratch per worker so repeated views allocate nothing once the
// buffers have grown to steady state.
type SubIndexScratch struct {
	view  TriangleIndex
	pids  []int32
	subID []int32
	offs  []int32
	flat  []int32
	tris  []Triangle
	comps [][]int32
}

// ParentIDs returns, for the view most recently built with this scratch, the
// parent id of each view triangle (aligned with the view's dense ids). The
// slice is valid until the next SubIndex call on the scratch.
func (scr *SubIndexScratch) ParentIDs() []int32 { return scr.pids }

// SubIDs returns the inverse translation of ParentIDs for the view most
// recently built with this scratch: indexed by parent triangle id, the view
// id of that triangle, or -1 if the triangle is absent from the view. The
// slice is valid until the next SubIndex call on the scratch. Callers that
// relate several views of the same parent (e.g. mapping a candidate view's
// triangles into a union view's id space) use this to translate without a
// per-triangle hash lookup.
func (scr *SubIndexScratch) SubIDs() []int32 { return scr.subID }

// SubIndex returns the restriction of ti to the edge set of g: the triangles
// of ti whose three edges all exist in g, with dense view ids assigned in
// parent-id order, and completion lists filtered to the completions whose
// 4-clique survives in g. g lives over the same vertex-id space as the graph
// ti indexes; only membership of ti's own triangle and completion edges is
// queried, so g need not be a subgraph of the indexed graph — edges of g
// outside it are simply ignored, and the view is the restriction of ti to
// the intersection of the two edge sets. When g is an edge-subgraph, the
// view's triangles and 4-cliques are exactly those NewTriangleIndex(g) would
// enumerate (in a different id order), at the cost of a filtering scan
// instead of a fresh enumeration, hash map, and degeneracy ordering.
//
// The view lives in scr and is valid until the next SubIndex call on the
// same scratch. Views stack: restricting a view (e.g. a candidate view of the
// full index refined per materialized world) chains id translation through
// each level. The supergraph tolerance is what lets a candidate view be
// restricted by worlds sampled over the whole candidate union instead of
// resampling per candidate.
//
// The cost is a scan of every triangle of ti with three edge lookups each,
// so SubIndex suits restrictions made once per call or per candidate of a
// small index: the global kernel restricts the full index once per call, to
// the candidate union (the union view its per-candidate world-check seeds
// are cut from, see decomp.WorldCheckUnion), rather than once per candidate.
func (ti *TriangleIndex) SubIndex(g *Graph, scr *SubIndexScratch) *TriangleIndex {
	n := ti.Len()
	if cap(scr.subID) < n {
		scr.subID = make([]int32, n)
	}
	subID := scr.subID[:n]
	pids, tris := scr.pids[:0], scr.tris[:0]
	for t := 0; t < n; t++ {
		tri := ti.Tris[t]
		if g.HasEdge(tri.A, tri.B) && g.HasEdge(tri.A, tri.C) && g.HasEdge(tri.B, tri.C) {
			subID[t] = int32(len(pids))
			pids = append(pids, int32(t))
			tris = append(tris, tri)
		} else {
			subID[t] = -1
		}
	}
	// A completion z survives iff its three edges to the triangle exist in g
	// (the triangle's own edges are already known present) — equivalently,
	// iff all four triangles of the 4-clique survive. Entries keep the
	// parent's ascending order, so views satisfy the sorted-Comps contract.
	flat, offs := scr.flat[:0], append(scr.offs[:0], 0)
	for _, pt := range pids {
		tri := ti.Tris[pt]
		for _, z := range ti.Comps[pt] {
			if g.HasEdge(tri.A, z) && g.HasEdge(tri.B, z) && g.HasEdge(tri.C, z) {
				flat = append(flat, z)
			}
		}
		offs = append(offs, int32(len(flat)))
	}
	comps := scr.comps[:0]
	for i := range pids {
		comps = append(comps, flat[offs[i]:offs[i+1]:offs[i+1]])
	}
	scr.pids, scr.subID, scr.offs, scr.flat, scr.tris, scr.comps = pids, subID, offs, flat, tris, comps
	scr.view = TriangleIndex{Tris: tris, Comps: comps, parent: ti, subID: subID}
	return &scr.view
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

// FourCliques enumerates all 4-cliques of the indexed graph as sorted
// 4-tuples of vertices.
func (ti *TriangleIndex) FourCliques() [][4]int32 {
	return ti.FourCliquesParallel(1)
}

// FourCliquesParallel is FourCliques with the per-triangle completion scan
// sharded across a worker pool. The clique tuples are distinct and the final
// slice is fully sorted, so the output is identical for every worker count.
func (ti *TriangleIndex) FourCliquesParallel(workers int) [][4]int32 {
	perTri := make([][][4]int32, len(ti.Tris))
	par.For(len(ti.Tris), workers, func(i int) {
		t := ti.Tris[i]
		for _, z := range ti.Comps[i] {
			if z > t.C { // count each clique once: z is the largest vertex
				perTri[i] = append(perTri[i], [4]int32{t.A, t.B, t.C, z})
			}
		}
	})
	var out [][4]int32
	for _, s := range perTri {
		out = append(out, s...)
	}
	slices.SortFunc(out, func(a, b [4]int32) int {
		for k := 0; k < 4; k++ {
			if a[k] != b[k] {
				if a[k] < b[k] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	return out
}
