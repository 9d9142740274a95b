package decomp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/graph"
	"probnucleus/internal/par"
)

// newIndex builds g's triangle index serially.
func newIndex(g *graph.Graph) *graph.TriangleIndex { return graph.NewTriangleIndex(g, par.NewPool(1)) }

// lexIDs returns the ids of tris sorted by Triangle.Compare: the lookup
// order of an index assembled from parts.
func lexIDs(tris []graph.Triangle) []int32 {
	ids := make([]int32, len(tris))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return tris[a].Compare(tris[b]) })
	return ids
}

// loadedIndex is ti as an artifact loader assembles it: the same triangles
// and completions, with the lookup order supplied from outside.
func loadedIndex(ti *graph.TriangleIndex) *graph.TriangleIndex {
	return graph.IndexFromParts(ti.Tris, ti.Comps, lexIDs(ti.Tris))
}

// restrict is the index restriction (the former TriangleIndex.SubIndex)
// that the incidence cuts replaced, kept as their reference: the triangles
// of ti whose three edges are edges of g, with dense view ids in ti order,
// and of each the completions whose z-edges are edges of g, ascending. Only
// membership of ti's own edges is queried, so edges of g outside ti's graph
// are ignored. The view answers ID by its own lookup order; pids[v] is view
// triangle v's id in ti.
func restrict(ti *graph.TriangleIndex, g *graph.Graph) (view *graph.TriangleIndex, pids []int32) {
	tris := []graph.Triangle{}
	comps := [][]int32{}
	for t, tri := range ti.Tris {
		if !g.HasEdge(tri.A, tri.B) || !g.HasEdge(tri.A, tri.C) || !g.HasEdge(tri.B, tri.C) {
			continue
		}
		zs := []int32{}
		for _, z := range ti.Comps[t] {
			if g.HasEdge(tri.A, z) && g.HasEdge(tri.B, z) && g.HasEdge(tri.C, z) {
				zs = append(zs, z)
			}
		}
		pids = append(pids, int32(t))
		tris = append(tris, tri)
		comps = append(comps, zs)
	}
	return graph.IndexFromParts(tris, comps, lexIDs(tris)), pids
}

// edgeIndexOf locates the canonical edge (u,v), u < v, in a (U,V)-sorted
// edge list, which must hold it.
func edgeIndexOf(edges []graph.Edge, u, v int32) int32 {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e := edges[mid]; e.U < u || (e.U == u && e.V < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(edges) || edges[lo] != (graph.Edge{U: u, V: v}) {
		panic("reference: edge missing from edge list")
	}
	return int32(lo)
}

// refWorldCheckUnion is the view-and-lookup WorldCheckUnion construction
// the incidence cut replaced: restrict the root index ti to the union graph,
// locate every union triangle's and completion's edges in the union edge
// list by binary search, and resolve every completion's other triangles by
// TriangleIndex.ID on the view. nv is the root graph's vertex count.
func refWorldCheckUnion(ti *graph.TriangleIndex, nv int, union []graph.Edge) *WorldCheckUnion {
	view, pids := restrict(ti, graph.FromSortedEdges(nv, union))
	uT := view.Len()
	u := &WorldCheckUnion{
		root:      pids,
		uid:       make([]int32, ti.Len()),
		triEdge:   make([]int32, 3*uT),
		byEdgeOff: make([]int32, len(union)+1),
		byEdge:    make([]int32, uT),
		compOff:   make([]int32, uT+1),
	}
	for t := range u.uid {
		u.uid[t] = -1
	}
	for v, t := range pids {
		u.uid[t] = int32(v)
	}
	for t := 0; t < uT; t++ {
		tri := view.Tris[t]
		e := u.triEdge[3*t : 3*t+3]
		e[0] = edgeIndexOf(union, tri.A, tri.B)
		e[1] = edgeIndexOf(union, tri.A, tri.C)
		e[2] = edgeIndexOf(union, tri.B, tri.C)
		u.byEdgeOff[min(e[0], e[1], e[2])+1]++
		u.compOff[t+1] = u.compOff[t] + int32(len(view.Comps[t]))
	}
	for e := range union {
		u.byEdgeOff[e+1] += u.byEdgeOff[e]
	}
	fill := make([]int32, len(union))
	for t := 0; t < uT; t++ {
		lo := min(u.triEdge[3*t], u.triEdge[3*t+1], u.triEdge[3*t+2])
		u.byEdge[u.byEdgeOff[lo]+fill[lo]] = int32(t)
		fill[lo]++
	}
	for t := 0; t < uT; t++ {
		tri := view.Tris[t]
		for _, z := range view.Comps[t] {
			for _, e := range [3]graph.Edge{{U: tri.A, V: z}, {U: tri.B, V: z}, {U: tri.C, V: z}} {
				e = e.Canon()
				u.compEdge = append(u.compEdge, edgeIndexOf(union, e.U, e.V))
			}
			for _, o := range [3]graph.Triangle{
				graph.MakeTriangle(tri.A, tri.B, z),
				graph.MakeTriangle(tri.A, tri.C, z),
				graph.MakeTriangle(tri.B, tri.C, z),
			} {
				id, ok := view.ID(o)
				if !ok {
					panic("reference: 4-clique triangle missing from union view")
				}
				u.compOther = append(u.compOther, id)
			}
		}
	}
	for _, e := range union {
		u.vert = append(u.vert, e.U, e.V)
	}
	slices.Sort(u.vert)
	u.vert = slices.Compact(u.vert)
	for _, e := range union {
		a, _ := slices.BinarySearch(u.vert, e.U)
		b, _ := slices.BinarySearch(u.vert, e.V)
		u.edgeEnd = append(u.edgeEnd, int32(a), int32(b))
	}
	return u
}

// unionIndex indexes the graph of the canonical sorted edge list union over
// nv vertices and cuts the union tables spanned by all of its triangles, so
// that root ids and union ids coincide.
func unionIndex(nv int, union []graph.Edge) (*graph.TriangleIndex, *WorldCheckUnion) {
	ug := graph.FromSortedEdges(nv, union)
	uti := newIndex(ug)
	all := make([]int32, uti.Len())
	for i := range all {
		all[i] = int32(i)
	}
	return uti, NewWorldCheckUnion(uti, NewTriIncidence(uti, ug), all, union, LaneIndex(nil, ug, union))
}

// spannedEdges returns the canonical sorted edges of the triangles tris of
// ti, each once.
func spannedEdges(ti *graph.TriangleIndex, tris []int32) []graph.Edge {
	var es []graph.Edge
	for _, t := range tris {
		tri := ti.Tris[t]
		es = append(es, graph.Edge{U: tri.A, V: tri.B}, graph.Edge{U: tri.A, V: tri.C}, graph.Edge{U: tri.B, V: tri.C})
	}
	slices.SortFunc(es, compareEdges)
	return slices.Compact(es)
}

// TestWorldCheckUnionMatchesReference: the union tables cut from the root
// incidence must equal the view-and-lookup construction field for field —
// union ids, the root → union id table, every union triangle's edge ids and
// lowest-edge layout, each completion's edge ids and other triangles, and
// the vertex tables, with a lane table holding stale lanes outside the
// union — for unions spanned by every level-k nucleus (k =
// 0..3) and by a random part of them, which need not be closed, over
// enumerated and loaded roots of K5, krogan, dblp and random graphs.
func TestWorldCheckUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	graphs := map[string]*graph.Graph{"K5": completeGraph(5)}
	for _, d := range []struct {
		name  string
		scale float64
	}{{"krogan", 0.05}, {"dblp", 0.04}} {
		graphs[fmt.Sprintf("%s@%g", d.name, d.scale)] = dataset.Generate(dataset.MustLoad(d.name, dataset.Scale(d.scale))).G
	}
	for i := 0; i < 3; i++ {
		graphs[fmt.Sprintf("dense%d", i)] = randomGraph(rng, 16, 0.85)
		graphs[fmt.Sprintf("sparse%d", i)] = randomGraph(rng, 24, 0.35)
	}
	checked := 0
	for name, g := range graphs {
		root, nu := NucleusNumbers(g)
		inc := NewTriIncidence(root, g)
		for _, parent := range []*graph.TriangleIndex{root, loadedIndex(root)} {
			for k := 0; k <= 3; k++ {
				var all, part []int32
				for _, c := range KNuclei(parent, inc, nu, k) {
					all = append(all, c.TriIDs...)
				}
				for _, tr := range all {
					if rng.Float64() < 0.5 {
						part = append(part, tr)
					}
				}
				for _, tris := range [][]int32{all, part} {
					if len(tris) == 0 {
						continue
					}
					union := spannedEdges(parent, tris)
					// A reused lane table holds stale lanes outside the union.
					stale := make([]int32, 2*g.NumEdges())
					for i := range stale {
						stale[i] = rng.Int31n(int32(len(union)))
					}
					got := NewWorldCheckUnion(parent, inc, tris, union, LaneIndex(stale, g, union))
					want := refWorldCheckUnion(parent, g.NumVertices(), union)
					where := fmt.Sprintf("%s k=%d |tris|=%d", name, k, len(tris))
					for _, f := range []struct {
						field     string
						got, want []int32
					}{
						{"root", got.root, want.root},
						{"root→union", got.uid, want.uid},
						{"triEdge", got.triEdge, want.triEdge},
						{"byEdgeOff", got.byEdgeOff, want.byEdgeOff},
						{"byEdge", got.byEdge, want.byEdge},
						{"compOff", got.compOff, want.compOff},
						{"compEdge", got.compEdge, want.compEdge},
						{"compOther", got.compOther, want.compOther},
						{"vert", got.vert, want.vert},
						{"edgeEnd", got.edgeEnd, want.edgeEnd},
					} {
						if !slices.Equal(f.got, f.want) {
							t.Fatalf("%s: %s %v, reference %v", where, f.field, f.got, f.want)
						}
					}
					checked++
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d unions checked", checked)
	}
}

// The per-world reference predicates of internal/exact (IsGlobalNucleusWorld
// and WorldNucleusMembership), installed by oracle_test.go: an external test
// file, since exact imports this package.
var (
	GlobalWorldOracle func(world *graph.Graph, verts []int32, k int) bool
	MembershipOracle  func(world *graph.Graph, k int) map[graph.Triangle]bool
)

// intersect returns the graph of g's edges that world also holds: a world
// drawn over a union, restricted to the candidate g.
func intersect(world, g *graph.Graph) *graph.Graph {
	var es []graph.Edge
	for _, e := range g.Edges() {
		if world.HasEdge(e.U, e.V) {
			es = append(es, e)
		}
	}
	return graph.FromSortedEdges(g.NumVertices(), es)
}

// oracleMembers returns, ascending, the ids in ti of the triangles of world
// (a subgraph of ti's graph) whose deterministic nucleusness in the world is
// at least k, by MembershipOracle.
func oracleMembers(ti *graph.TriangleIndex, world *graph.Graph, k int) []int32 {
	var ids []int32
	for tri := range MembershipOracle(world, k) {
		id, ok := ti.ID(tri)
		if !ok {
			panic("reference: world triangle missing from index")
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
