// Package graph provides a compact undirected-graph representation in
// compressed sparse row (CSR) form together with the clique-enumeration
// primitives (triangles and 4-cliques) that nucleus decomposition is built
// on.
//
// Vertices are dense int32 identifiers in [0, N). Adjacency lists are kept
// sorted, so membership tests are binary searches and neighbourhood
// intersections are linear merges.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V int32
}

// Canon returns e with endpoints ordered so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Graph is an immutable undirected simple graph in CSR form. Each edge is
// stored twice, once in each endpoint's adjacency list.
type Graph struct {
	offs []int32 // len n+1; adjacency of v is adj[offs[v]:offs[v+1]]
	adj  []int32 // sorted neighbour ids
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offs) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int { return int(g.offs[v+1] - g.offs[v]) }

// MaxDegree returns the maximum degree over all vertices, or 0 for an empty
// graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[g.offs[v]:g.offs[v+1]] }

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *Graph) HasEdge(u, v int32) bool {
	if u < 0 || v < 0 || int(u) >= g.NumVertices() || int(v) >= g.NumVertices() {
		return false
	}
	ns := g.Neighbors(u)
	_, ok := slices.BinarySearch(ns, v)
	return ok
}

// AdjIndex returns the CSR position of neighbour v inside u's adjacency
// list, or -1 if the edge does not exist. The position indexes parallel
// per-directed-edge arrays (such as edge probabilities).
func (g *Graph) AdjIndex(u, v int32) int {
	ns := g.Neighbors(u)
	if i, ok := slices.BinarySearch(ns, v); ok {
		return int(g.offs[u]) + i
	}
	return -1
}

// Edges returns all undirected edges with U < V, ordered by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// CommonNeighbors returns the sorted intersection of the adjacency lists of
// u and v.
func (g *Graph) CommonNeighbors(u, v int32) []int32 {
	return IntersectSorted(g.Neighbors(u), g.Neighbors(v))
}

// Gallop returns the smallest index i with s[i] >= x in the ascending slice
// s (len(s) when there is none), by exponential search from the front: it
// costs O(log i), so a cursor that advances through a sorted list in
// ascending probes — resliced past each hit — pays the log of every gap
// rather than the log of the list, and one comparison when the target is at
// the head.
func Gallop[T cmp.Ordered](s []T, x T) int {
	if len(s) == 0 || s[0] >= x {
		return 0
	}
	// Invariant: s[lo] < x.
	lo, step := 0, 1
	for lo+step < len(s) && s[lo+step] < x {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(s))
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectSorted returns the intersection of two sorted int32 slices as a
// fresh slice.
func IntersectSorted(a, b []int32) []int32 {
	return IntersectSortedInto(nil, a, b)
}

// IntersectSortedInto appends the intersection of two sorted int32 slices to
// dst and returns it, allocating only if dst's capacity runs out.
func IntersectSortedInto(dst, a, b []int32) []int32 {
	out := dst
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Intersect3Sorted returns the common elements of three sorted int32 slices.
func Intersect3Sorted(a, b, c []int32) []int32 {
	return Intersect3SortedInto(nil, a, b, c)
}

// Intersect3SortedInto appends the common elements of three sorted int32
// slices to dst and returns it, allocating only if dst's capacity runs out.
func Intersect3SortedInto(dst, a, b, c []int32) []int32 {
	out := dst
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) && k < len(c) {
		x, y, z := a[i], b[j], c[k]
		if x == y && y == z {
			out = append(out, x)
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
	return out
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are rejected at Add time.
type Builder struct {
	n     int32
	edges map[Edge]struct{}
}

// NewBuilder returns a Builder for a graph with at least n vertices. The
// vertex count grows automatically as larger endpoints are added.
func NewBuilder(n int) *Builder {
	return &Builder{n: int32(n), edges: make(map[Edge]struct{})}
}

// AddEdge inserts the undirected edge (u,v). It returns an error for
// self-loops, negative ids, or duplicate edges.
func (b *Builder) AddEdge(u, v int32) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative vertex id (%d,%d)", u, v)
	}
	e := Edge{u, v}.Canon()
	if _, dup := b.edges[e]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", e.U, e.V)
	}
	b.edges[e] = struct{}{}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	return nil
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the CSR structure. The Builder may be reused afterwards
// only by adding more edges and building again.
func (b *Builder) Build() *Graph {
	n := int(b.n)
	deg := make([]int32, n+1)
	for e := range b.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + deg[i+1]
	}
	adj := make([]int32, offs[n])
	fill := make([]int32, n)
	for e := range b.edges {
		adj[offs[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		adj[offs[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	g := &Graph{offs: offs, adj: adj}
	for v := 0; v < n; v++ {
		ns := g.adj[g.offs[v]:g.offs[v+1]]
		slices.Sort(ns)
	}
	return g
}

// CSR exposes the graph's raw CSR arrays: offs has length n+1 and the sorted
// adjacency of vertex v is adj[offs[v]:offs[v+1]]. Both slices alias the
// graph's storage and must not be modified — the accessor exists so
// serializers (internal/artifact) can write the arrays out without copying.
func (g *Graph) CSR() (offs, adj []int32) { return g.offs, g.adj }

// FromCSR builds a Graph directly from its CSR arrays: offs has length n+1
// and adj holds the sorted adjacency of vertex v at adj[offs[v]:offs[v+1]].
// The caller promises the usual invariants (symmetric, simple, sorted lists)
// — nothing is validated — and the graph takes ownership of both slices.
// This is the allocation-lean construction path for callers that can emit
// adjacency in sorted order directly, such as possible-world sampling and
// subgraph extraction over an already-sorted edge list.
func FromCSR(offs, adj []int32) *Graph { return &Graph{offs: offs, adj: adj} }

// FromSortedEdges builds a graph over n vertices from canonical (U < V),
// (U,V)-sorted, duplicate-free edges by direct CSR assembly (count pass,
// prefix sum, fill pass — no Builder hash map). Processing edges in
// canonical order appends every vertex's back-neighbours (from edges where
// it is V) before its forward ones, each run ascending, so adjacency comes
// out sorted for free. It is the deterministic-graph counterpart of
// probgraph.SubgraphOfEdges, for candidate subgraphs that never need edge
// probabilities.
func FromSortedEdges(n int, es []Edge) *Graph {
	offs := make([]int32, n+1)
	for _, e := range es {
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	adj := make([]int32, 2*len(es))
	fill := make([]int32, n)
	for _, e := range es {
		adj[offs[e.U]+fill[e.U]] = e.V
		adj[offs[e.V]+fill[e.V]] = e.U
		fill[e.U]++
		fill[e.V]++
	}
	return &Graph{offs: offs, adj: adj}
}

// FromEdges builds a graph from a list of edges, ignoring duplicates.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		_ = b.AddEdge(e.U, e.V) // duplicates silently skipped
	}
	return b.Build()
}

// InducedSubgraph returns the subgraph induced by keeping exactly the edges
// for which keep reports true, over the same vertex-id space.
func (g *Graph) InducedSubgraph(keep func(u, v int32) bool) *Graph {
	b := NewBuilder(g.NumVertices())
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && keep(u, v) {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// ConnectedComponents returns, for each vertex, a component id in [0,
// #components), considering only vertices with degree > 0 unless
// includeIsolated is true. Isolated vertices get id -1 when excluded.
func (g *Graph) ConnectedComponents(includeIsolated bool) (comp []int32, count int) {
	n := g.NumVertices()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for s := int32(0); int(s) < n; s++ {
		if comp[s] != -1 {
			continue
		}
		if g.Degree(s) == 0 && !includeIsolated {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if comp[w] == -1 {
					comp[w] = id
					stack = append(stack, w)
				}
			}
		}
	}
	return comp, count
}
