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

func nucleusPeel(ca *CliqueAdj) []int {
	var q bucket.Queue
	return nucleusPeelInto(ca, &q, make([]int, ca.Len()))
}

// nucleusPeelInto is nucleusPeel with caller-owned queue and score storage,
// for hot loops that peel many small graphs (per-sampled-world membership
// scoring) and want to reuse the buffers. nu must have length ca.Len(); it
// is overwritten and returned.
func nucleusPeelInto(ca *CliqueAdj, q *bucket.Queue, nu []int) []int {
	n := ca.Len()
	maxSup := 0
	for t := 0; t < n; t++ {
		if ca.AliveCount[t] > maxSup {
			maxSup = ca.AliveCount[t]
		}
	}
	q.Reset(n, maxSup)
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
// a 4-clique all of whose triangles have ν ≥ k". A nucleus lists its
// triangles in ascending ti id, and carries those ids as TriIDs.
func KNuclei(ti *graph.TriangleIndex, nu []int, k int) []Nucleus {
	n := ti.Len()
	u := uf.New(n)
	for t := 0; t < n; t++ {
		if nu[t] < k {
			continue
		}
		tri := ti.Tris[t]
		for _, z := range ti.Comps[t] {
			// The clique {tri, z}: union with its other three triangles if
			// every one of them reaches level k.
			others := [3]graph.Triangle{
				graph.MakeTriangle(tri.A, tri.B, z),
				graph.MakeTriangle(tri.A, tri.C, z),
				graph.MakeTriangle(tri.B, tri.C, z),
			}
			ok := true
			var ids [3]int32
			for i, o := range others {
				id, exists := ti.ID(o)
				if !exists || nu[id] < k {
					ok = false
					break
				}
				ids[i] = id
			}
			if !ok {
				continue
			}
			for _, id := range ids {
				u.Union(int32(t), id)
			}
		}
	}
	groups := u.Groups(1, func(t int32) bool {
		if nu[t] < k {
			return false
		}
		// A nucleus must be a union of 4-cliques: a triangle with no
		// qualifying clique (e.g. an isolated triangle at k = 0) is excluded
		// unless k = 0 and it genuinely has no 4-clique requirement... the
		// paper's preconditions require subgraphs that are unions of
		// 4-cliques, so we require at least one completion at level k.
		return hasLevelKClique(ti, nu, t, k)
	})
	out := make([]Nucleus, 0, len(groups))
	for _, grp := range groups {
		nuc := Nucleus{K: k, TriIDs: grp}
		vs := make(map[int32]bool)
		es := make(map[graph.Edge]bool)
		for _, t := range grp {
			tri := ti.Tris[t]
			nuc.Triangles = append(nuc.Triangles, tri)
			vs[tri.A], vs[tri.B], vs[tri.C] = true, true, true
			es[graph.Edge{U: tri.A, V: tri.B}] = true
			es[graph.Edge{U: tri.A, V: tri.C}] = true
			es[graph.Edge{U: tri.B, V: tri.C}] = true
		}
		for v := range vs {
			nuc.Vertices = append(nuc.Vertices, v)
		}
		for e := range es {
			nuc.Edges = append(nuc.Edges, e)
		}
		slices.Sort(nuc.Vertices)
		slices.SortFunc(nuc.Edges, func(a, b graph.Edge) int {
			if c := cmp.Compare(a.U, b.U); c != 0 {
				return c
			}
			return cmp.Compare(a.V, b.V)
		})
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

func hasLevelKClique(ti *graph.TriangleIndex, nu []int, t int32, k int) bool {
	tri := ti.Tris[t]
	for _, z := range ti.Comps[t] {
		ok := true
		for _, o := range [3]graph.Triangle{
			graph.MakeTriangle(tri.A, tri.B, z),
			graph.MakeTriangle(tri.A, tri.C, z),
			graph.MakeTriangle(tri.B, tri.C, z),
		} {
			id, exists := ti.ID(o)
			if !exists || nu[id] < k {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
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
