package decomp

import (
	"cmp"
	"slices"

	"probnucleus/internal/bucket"
	"probnucleus/internal/graph"
	"probnucleus/internal/uf"
)

// CoreNumbers returns the core number of every vertex: the largest k such
// that the vertex belongs to a subgraph in which every vertex has degree at
// least k (k-(1,2)-nucleus in the paper's taxonomy). Batagelj–Zaveršnik
// peeling, O(n + m).
func CoreNumbers(g *graph.Graph) []int {
	n := g.NumVertices()
	core := make([]int, n)
	q := bucket.New(n, g.MaxDegree())
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		q.Push(int32(v), deg[v])
	}
	removed := make([]bool, n)
	floor := 0
	for q.Len() > 0 {
		v, k, _ := q.Pop()
		if k > floor {
			floor = k
		}
		core[v] = floor
		removed[v] = true
		for _, w := range g.Neighbors(v) {
			if !removed[w] && deg[w] > floor {
				deg[w]--
				q.Update(w, deg[w])
			}
		}
	}
	return core
}

// EdgeIndex assigns dense ids to the undirected edges of a graph.
type EdgeIndex struct {
	Edges []graph.Edge
	ids   map[graph.Edge]int32
}

// NewEdgeIndex indexes the edges of g in canonical order.
func NewEdgeIndex(g *graph.Graph) *EdgeIndex {
	es := g.Edges()
	ei := &EdgeIndex{Edges: es, ids: make(map[graph.Edge]int32, len(es))}
	for i, e := range es {
		ei.ids[e] = int32(i)
	}
	return ei
}

// ID returns the id of edge (u,v) and whether it exists.
func (ei *EdgeIndex) ID(u, v int32) (int32, bool) {
	id, ok := ei.ids[graph.Edge{U: u, V: v}.Canon()]
	return id, ok
}

// TrussNumbers returns, for every edge of g, the largest k such that the
// edge belongs to a subgraph in which every edge is contained in at least k
// triangles (k-(2,3)-nucleus; equal to the classical trussness minus 2).
func TrussNumbers(g *graph.Graph) (*EdgeIndex, []int) {
	ei := NewEdgeIndex(g)
	m := len(ei.Edges)
	sup := make([]int, m)
	maxSup := 0
	for i, e := range ei.Edges {
		sup[i] = len(g.CommonNeighbors(e.U, e.V))
		if sup[i] > maxSup {
			maxSup = sup[i]
		}
	}
	q := bucket.New(m, maxSup)
	for i := 0; i < m; i++ {
		q.Push(int32(i), sup[i])
	}
	truss := make([]int, m)
	removed := make([]bool, m)
	floor := 0
	for q.Len() > 0 {
		eid, k, _ := q.Pop()
		if k > floor {
			floor = k
		}
		truss[eid] = floor
		removed[eid] = true
		e := ei.Edges[eid]
		for _, w := range g.CommonNeighbors(e.U, e.V) {
			uw, ok1 := ei.ID(e.U, w)
			vw, ok2 := ei.ID(e.V, w)
			if !ok1 || !ok2 || removed[uw] || removed[vw] {
				continue // triangle already destroyed
			}
			if sup[uw] > floor {
				sup[uw]--
				q.Update(uw, sup[uw])
			}
			if sup[vw] > floor {
				sup[vw]--
				q.Update(vw, sup[vw])
			}
		}
	}
	return ei, truss
}

// NucleusNumbers returns the (3,4)-nucleusness of every triangle of g: the
// largest k such that the triangle belongs to a subgraph in which every
// triangle is contained in at least k 4-cliques. This is the deterministic
// decomposition of Sarıyüce et al. that the probabilistic algorithms sample
// against.
func NucleusNumbers(g *graph.Graph) (*graph.TriangleIndex, []int) {
	ca := NewCliqueAdj(g)
	return ca.TI, nucleusPeel(ca)
}

// nucleusPeel peels ca's triangles in bucket order and returns every
// triangle's nucleusness.
func nucleusPeel(ca *CliqueAdj) []int {
	n := ca.Len()
	nu := make([]int, n)
	maxSup := 0
	for t := 0; t < n; t++ {
		if ca.AliveCount[t] > maxSup {
			maxSup = ca.AliveCount[t]
		}
	}
	q := bucket.New(n, maxSup)
	for t := 0; t < n; t++ {
		q.Push(int32(t), ca.AliveCount[t])
	}
	floor := 0
	for q.Len() > 0 {
		t, k, _ := q.Pop()
		if k > floor {
			floor = k
		}
		nu[t] = floor
		ca.RemoveTriangle(t, func(o int32, _ int) {
			c := ca.AliveCount[o]
			if c < floor {
				c = floor
			}
			if q.Key(o) != c && q.Key(o) != -1 {
				q.Update(o, c)
			}
		})
	}
	return nu
}

// Nucleus is one maximal k-(3,4)-nucleus: a set of triangles pairwise
// connected through 4-cliques whose triangles all have nucleusness ≥ k,
// together with the vertices and edges they span. TriIDs[i] is the id of
// Triangles[i] in the triangle index the nucleus was assembled from (see
// KNuclei), so callers holding that index need no lookup by vertex triple.
type Nucleus struct {
	K         int
	Triangles []graph.Triangle
	TriIDs    []int32
	Vertices  []int32
	Edges     []graph.Edge
}

// KNuclei assembles the maximal k-nuclei from precomputed nucleusness
// values: connected components of {△ : ν(△) ≥ k} under the relation "share
// a 4-clique all of whose triangles have ν ≥ k". A triangle in no such
// clique belongs to no nucleus (a nucleus is a union of 4-cliques, even at
// k = 0). inc is ti's edge→triangle incidence: every level-k clique is
// resolved once through it (see LevelCliques), with no lookup by vertex
// triple. A nucleus lists its triangles in ascending ti id, and carries
// those ids as TriIDs.
func KNuclei(ti *graph.TriangleIndex, inc *TriIncidence, nu []int, k int) []Nucleus {
	n := ti.Len()
	u := uf.New(n)
	inClique := make([]bool, n)
	LevelCliques(ti, inc, nu, k, func(cl [4]int32) {
		for _, id := range cl {
			inClique[id] = true
		}
		u.Union(cl[0], cl[1])
		u.Union(cl[0], cl[2])
		u.Union(cl[0], cl[3])
	})
	groups := u.Groups(1, func(t int32) bool { return inClique[t] })
	out := make([]Nucleus, 0, len(groups))
	var span SpanBuilder
	for _, grp := range groups {
		nuc := Nucleus{K: k, TriIDs: grp, Triangles: make([]graph.Triangle, len(grp))}
		for i, t := range grp {
			nuc.Triangles[i] = ti.Tris[t]
		}
		nuc.Vertices, nuc.Edges = span.Span(ti, grp)
		out = append(out, nuc)
	}
	slices.SortFunc(out, func(a, b Nucleus) int {
		if c := cmp.Compare(len(b.Vertices), len(a.Vertices)); c != 0 {
			return c
		}
		if len(a.Vertices) == 0 {
			return 0
		}
		return cmp.Compare(a.Vertices[0], b.Vertices[0])
	})
	return out
}

// LevelCliques calls fn once for every 4-clique of ti whose four triangles
// all have ν ≥ k. cl[0] is the clique's lexicographically first triangle
// (A,B,C), whose completion z lies above C, and cl[1], cl[2], cl[3] are its
// triangles (A,B,z), (A,C,z) and (B,C,z), resolved by one sibling walk of
// inc per triangle instead of a lookup by vertex triple. Cliques come in
// ascending (cl[0], z) order. inc must be ti's incidence.
func LevelCliques(ti *graph.TriangleIndex, inc *TriIncidence, nu []int, k int, fn func(cl [4]int32)) {
	for t, tri := range ti.Tris {
		if nu[t] < k {
			continue
		}
		zs := ti.Comps[t]
		i, _ := slices.BinarySearch(zs, tri.C+1)
		if i == len(zs) {
			continue
		}
		sib := inc.siblings(int32(t))
		for _, z := range zs[i:] {
			ids := sib.next(z)
			if nu[ids[0]] >= k && nu[ids[1]] >= k && nu[ids[2]] >= k {
				fn([4]int32{int32(t), ids[0], ids[1], ids[2]})
			}
		}
	}
}

// SpanBuilder derives the vertices and edges a set of triangles spans. The
// triangles' vertices and edges — an edge packed as U<<32 | V, which orders
// as (U, V) — are sorted and compacted in scratch reused across calls, so a
// span allocates only its two result slices.
type SpanBuilder struct {
	verts []int32
	keys  []uint64
}

// Span returns the distinct vertices, ascending, and the distinct edges, in
// (U, V) order, of the triangles ids of ti, as fresh slices.
func (sb *SpanBuilder) Span(ti *graph.TriangleIndex, ids []int32) ([]int32, []graph.Edge) {
	verts, keys := slices.Grow(sb.verts[:0], 3*len(ids)), slices.Grow(sb.keys[:0], 3*len(ids))
	for _, t := range ids {
		tri := ti.Tris[t]
		a, b, c := uint64(uint32(tri.A)), uint64(uint32(tri.B)), uint64(uint32(tri.C))
		verts = append(verts, tri.A, tri.B, tri.C)
		keys = append(keys, a<<32|b, a<<32|c, b<<32|c)
	}
	slices.Sort(verts)
	slices.Sort(keys)
	sb.verts, sb.keys = verts, keys
	keys = slices.Compact(keys)
	edges := make([]graph.Edge, len(keys))
	for i, key := range keys {
		edges[i] = graph.Edge{U: int32(key >> 32), V: int32(uint32(key))}
	}
	return slices.Clone(slices.Compact(verts)), edges
}

// MaxNucleusness returns the maximum entry of nu, or 0 when there are no
// triangles.
func MaxNucleusness(nu []int) int {
	max := 0
	for _, v := range nu {
		if v > max {
			max = v
		}
	}
	return max
}
