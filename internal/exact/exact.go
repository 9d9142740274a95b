// Package exact computes the probabilistic nucleus tail probabilities of
// Definition 4 by exhaustive possible-world enumeration. It is exponential
// in the number of edges (2^m worlds) and exists as a ground-truth oracle
// for tests and for the small worked examples of the paper.
package exact

import (
	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/probgraph"
	"probnucleus/internal/uf"
)

// MaxEdges bounds the graphs the oracle accepts; 2^22 worlds is the largest
// enumeration that stays comfortably interactive.
const MaxEdges = 22

// TailProbs holds Pr(X_{G,△,µ} ≥ k) for the three modes of Definition 4.
type TailProbs struct {
	Local, Global, Weak float64
}

// Tail enumerates every possible world of pg and returns the exact tail
// probabilities of the triangle △ at level k, for all three modes at once.
// It panics if pg has more than MaxEdges edges.
func Tail(pg *probgraph.Graph, tri graph.Triangle, k int) TailProbs {
	edges := pg.Edges()
	m := len(edges)
	if m > MaxEdges {
		panic("exact: graph too large for world enumeration")
	}
	verts := vertexList(pg)
	var out TailProbs
	for mask := 0; mask < 1<<m; mask++ {
		p := 1.0
		b := graph.NewBuilder(pg.NumVertices())
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				p *= e.P
				_ = b.AddEdge(e.U, e.V)
			} else {
				p *= 1 - e.P
			}
		}
		if p == 0 {
			continue
		}
		w := b.Build()
		if !(w.HasEdge(tri.A, tri.B) && w.HasEdge(tri.A, tri.C) && w.HasEdge(tri.B, tri.C)) {
			continue // △ not in this world: all three indicators are 0
		}
		// Local: support of △ in the world ≥ k.
		if supportInWorld(w, tri) >= k {
			out.Local += p
		}
		// Global: the world itself is a deterministic k-nucleus.
		if IsGlobalNucleusWorld(w, verts, k) {
			out.Global += p
		}
		// Weakly-global: some subgraph of the world is a deterministic
		// k-nucleus containing △.
		if WorldNucleusMembership(w, k)[tri] {
			out.Weak += p
		}
	}
	return out
}

// LocalNucleusness returns, for every triangle of pg, the exact largest k
// with Pr(X_{G,△,ℓ} ≥ k) ≥ θ computed by enumeration — the quantity
// Algorithm 1 computes with dynamic programming before any peeling. (Note:
// this is the *initial* κ score of a triangle, not its final nucleusness.)
func LocalNucleusness(pg *probgraph.Graph, tri graph.Triangle, theta float64) int {
	edges := pg.Edges()
	if len(edges) > MaxEdges {
		panic("exact: graph too large for world enumeration")
	}
	k := -1
	for {
		if Tail(pg, tri, k+1).Local >= theta {
			k++
		} else {
			return k
		}
	}
}

// IsGlobalNucleusWorld reports whether a possible world qualifies as a
// deterministic k-nucleus for the global (g) semantics of Definition 4:
//
//	1g(G, △, k) = 1  iff  △ is in G and G is a deterministic k-nucleus.
//
// Following the paper's own usage (Example 1 counts the world in which
// vertex 4 hangs off the {1,2,3,5} clique by a single edge, and the
// reliability reduction of Lemma 2 equates 0-nuclei with connected worlds),
// "G is a deterministic k-nucleus" is evaluated as:
//
//   - G is connected over the fixed vertex set verts (the vertices of the
//     candidate subgraph H whose worlds are being sampled); and
//   - every triangle of G is contained in at least k 4-cliques of G; and
//   - for k ≥ 1, the triangles of G are pairwise 4-clique-connected.
//
// For k = 0 the last two conditions are vacuous and the predicate collapses
// to world connectivity, exactly as Lemma 2 requires. The world is
// decomposed afresh: every triangle has at least k 4-cliques iff every
// triangle's nucleusness is at least k, and 4-clique connectivity joins the
// four triangles of every clique.
func IsGlobalNucleusWorld(world *graph.Graph, verts []int32, k int) bool {
	comp := uf.New(world.NumVertices())
	for _, e := range world.Edges() {
		comp.Union(e.U, e.V)
	}
	for _, v := range verts {
		if comp.Find(v) != comp.Find(verts[0]) {
			return false
		}
	}
	if k == 0 {
		return true
	}
	ti, nu := decomp.NucleusNumbers(world)
	if ti.Len() == 0 {
		// No triangles at all: there is nothing whose support can reach
		// k ≥ 1, and a k-nucleus must contain triangles.
		return false
	}
	for _, v := range nu {
		if v < k {
			return false
		}
	}
	tris := uf.New(ti.Len())
	decomp.LevelCliques(ti, decomp.NewTriIncidence(ti, world), nu, 0, func(cl [4]int32) {
		tris.Union(cl[0], cl[1])
		tris.Union(cl[0], cl[2])
		tris.Union(cl[0], cl[3])
	})
	for t := int32(1); int(t) < ti.Len(); t++ {
		if tris.Find(t) != tris.Find(0) {
			return false
		}
	}
	return true
}

// WorldNucleusMembership returns, for the given world, the set of triangles
// (as canonical Triangles) whose deterministic nucleusness in the world is
// at least k — equivalently, the triangles for which some subgraph of the
// world is a deterministic k-nucleus containing them, which for k ≥ 1 are
// the triangles of the world's level-k 4-cliques. At k = 0 every triangle
// is its own connected 0-nucleus (Lemma 2 semantics).
func WorldNucleusMembership(world *graph.Graph, k int) map[graph.Triangle]bool {
	ti, nu := decomp.NucleusNumbers(world)
	out := make(map[graph.Triangle]bool)
	if k == 0 {
		for _, tri := range ti.Tris {
			out[tri] = true
		}
		return out
	}
	decomp.LevelCliques(ti, decomp.NewTriIncidence(ti, world), nu, k, func(cl [4]int32) {
		for _, t := range cl {
			out[ti.Tris[t]] = true
		}
	})
	return out
}

func supportInWorld(w *graph.Graph, tri graph.Triangle) int {
	return len(graph.Intersect3Sorted(
		w.Neighbors(tri.A), w.Neighbors(tri.B), w.Neighbors(tri.C)))
}

func vertexList(pg *probgraph.Graph) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, e := range pg.Edges() {
		for _, v := range []int32{e.U, e.V} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}
