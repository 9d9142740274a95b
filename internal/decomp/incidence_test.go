package decomp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/bucket"
	"probnucleus/internal/dataset"
	"probnucleus/internal/graph"
)

// refCliqueAdj is the lookup-based clique peel that the TriIncidence walk
// replaced, kept as the differential reference: it resolves each killed
// clique's sibling triangles by vertex triple through TriangleIndex.ID and
// reports them in the same order — completions ascending, then (A,B,z),
// (A,C,z), (B,C,z).
type refCliqueAdj struct {
	ti    *graph.TriangleIndex
	alive [][]bool
	count []int
	dead  []bool
}

func newRefCliqueAdj(ti *graph.TriangleIndex) *refCliqueAdj {
	r := &refCliqueAdj{ti: ti, alive: make([][]bool, ti.Len()), count: make([]int, ti.Len()), dead: make([]bool, ti.Len())}
	for t, zs := range ti.Comps {
		r.alive[t] = make([]bool, len(zs))
		for i := range zs {
			r.alive[t][i] = true
		}
		r.count[t] = len(zs)
	}
	return r
}

func (r *refCliqueAdj) removeTriangle(t int32, onUpdate func(other int32, slot int)) {
	if r.dead[t] {
		return
	}
	r.dead[t] = true
	tri := r.ti.Tris[t]
	missing := [3]int32{tri.C, tri.B, tri.A}
	for i, z := range r.ti.Comps[t] {
		if !r.alive[t][i] {
			continue
		}
		r.alive[t][i] = false
		r.count[t]--
		for j, o := range [3]graph.Triangle{
			graph.MakeTriangle(tri.A, tri.B, z),
			graph.MakeTriangle(tri.A, tri.C, z),
			graph.MakeTriangle(tri.B, tri.C, z),
		} {
			id, ok := r.ti.ID(o)
			if !ok {
				panic("reference: 4-clique triangle missing from index")
			}
			if r.dead[id] {
				continue
			}
			slot, found := slices.BinarySearch(r.ti.Comps[id], missing[j])
			if !found || !r.alive[id][slot] {
				continue
			}
			r.alive[id][slot] = false
			r.count[id]--
			onUpdate(id, slot)
		}
	}
}

// refNucleusPeel is nucleusPeelInto over the reference adjacency.
func refNucleusPeel(ti *graph.TriangleIndex) []int {
	r := newRefCliqueAdj(ti)
	n := ti.Len()
	maxSup := 0
	for _, c := range r.count {
		maxSup = max(maxSup, c)
	}
	var q bucket.Queue
	q.Reset(n, maxSup)
	for t := 0; t < n; t++ {
		q.Push(int32(t), r.count[t])
	}
	nu := make([]int, n)
	floor := 0
	for q.Len() > 0 {
		t, k, _ := q.Pop()
		floor = max(floor, k)
		nu[t] = floor
		r.removeTriangle(t, func(o int32, _ int) {
			c := max(r.count[o], floor)
			if q.Key(o) != c && q.Key(o) != -1 {
				q.Update(o, c)
			}
		})
	}
	return nu
}

// incidenceGraphs is the differential corpus: the named datasets at small
// scales and dense random graphs, where edges carry many triangles and
// sibling walks skip far.
func incidenceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{"K8": completeGraph(8)}
	for _, d := range []struct {
		name  string
		scale float64
	}{{"krogan", 0.05}, {"dblp", 0.04}, {"flickr", 0.02}} {
		gs[fmt.Sprintf("%s@%g", d.name, d.scale)] = dataset.Generate(dataset.MustLoad(d.name, dataset.Scale(d.scale))).G
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 3; i++ {
		gs[fmt.Sprintf("dense%d", i)] = randomGraph(rng, 16, 0.85)
	}
	return gs
}

// peelCase is one triangle index a clique peel runs over, with the
// incidence built for it.
type peelCase struct {
	name string
	ti   *graph.TriangleIndex
	inc  *TriIncidence
}

// peelCases builds, for every corpus graph, the index shapes peels meet: a
// hash-map root, an artifact-style byTri root, and a SubIndex view of a
// random edge subgraph with its incidence keyed both by the subgraph's CSR
// and by its sorted edge list.
func peelCases(t *testing.T) []peelCase {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	gs := incidenceGraphs(t)
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	slices.Sort(names)
	var cases []peelCase
	for _, name := range names {
		g := gs[name]
		root := graph.NewTriangleIndex(g)
		loaded := graph.IndexFromParts(root.Tris, root.Comps, root.SortedIDs())
		h := worldOf(rng, g, 0.8, false)
		view := root.SubIndex(h, new(graph.SubIndexScratch))
		byEdges := new(TriIncidence)
		byEdges.resetEdges(view, h.Edges())
		cases = append(cases,
			peelCase{name + "/root", root, NewTriIncidence(root, g)},
			peelCase{name + "/byTri", loaded, NewTriIncidence(loaded, g)},
			peelCase{name + "/view", view, NewTriIncidence(view, h)},
			peelCase{name + "/view-edges", view, byEdges},
		)
	}
	return cases
}

type update struct {
	other int32
	slot  int
}

// TestRemoveTriangleMatchesReference: for every index shape, removing the
// triangles in a random order must report exactly the (other, slot)
// callbacks of the lookup-based reference, in the same order, and leave the
// same supports behind.
func TestRemoveTriangleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, c := range peelCases(t) {
		ca := NewCliqueAdjFromIndex(c.ti, c.inc)
		ref := newRefCliqueAdj(c.ti)
		var got, want []update
		for _, kill := range rng.Perm(c.ti.Len()) {
			got, want = got[:0], want[:0]
			ca.RemoveTriangle(int32(kill), func(o int32, slot int) { got = append(got, update{o, slot}) })
			ref.removeTriangle(int32(kill), func(o int32, slot int) { want = append(want, update{o, slot}) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s: removing %d reported %v, reference %v", c.name, kill, got, want)
			}
		}
		for tr, n := range ref.count {
			if ca.AliveCount[tr] != n {
				t.Fatalf("%s: triangle %d support %d, reference %d", c.name, tr, ca.AliveCount[tr], n)
			}
		}
		if c.ti.Len() == 0 {
			t.Errorf("%s: empty index, differential is vacuous", c.name)
		}
	}
}

// TestNucleusNumbersMatchesReference: the deterministic decomposition over
// the incidence walk equals the reference peel on every index shape, and
// NucleusNumbers — which builds the incidence from the graph at hand —
// equals it on the root index.
func TestNucleusNumbersMatchesReference(t *testing.T) {
	for _, c := range peelCases(t) {
		if got, want := nucleusPeel(NewCliqueAdjFromIndex(c.ti, c.inc)), refNucleusPeel(c.ti); !slices.Equal(got, want) {
			t.Errorf("%s: nucleusness differs from the reference peel", c.name)
		}
	}
	for name, g := range incidenceGraphs(t) {
		ti, got := NucleusNumbers(g)
		if want := refNucleusPeel(ti); !slices.Equal(got, want) {
			t.Errorf("%s: NucleusNumbers differs from the reference peel", name)
		}
	}
}

// TestWorldPeelSeedMatchesReference: a seed bound to candidate after
// candidate (one seed, scratch reused across sizes) must produce the core,
// core cliques and per-core-triangle edge ids the lookup-based construction
// produces, over views of both root index kinds.
func TestWorldPeelSeedMatchesReference(t *testing.T) {
	var seed WorldPeelSeed
	var sub graph.SubIndexScratch
	checked := 0
	for name, g := range incidenceGraphs(t) {
		root := graph.NewTriangleIndex(g)
		nu := refNucleusPeel(root)
		for _, parent := range []*graph.TriangleIndex{root, graph.IndexFromParts(root.Tris, root.Comps, root.SortedIDs())} {
			for k := 1; k <= 2; k++ {
				for ci, cand := range KNuclei(root, nu, k) {
					h := graph.FromSortedEdges(g.NumVertices(), cand.Edges)
					view := parent.SubIndex(h, &sub)
					seed.Seed(view, cand.Edges, k)
					seed.MapUnion(cand.Edges)
					core, cliques, coreEdge := refSeed(view, cand.Edges, k)
					where := fmt.Sprintf("%s k=%d candidate %d", name, k, ci)
					if !slices.Equal(seed.Core(), core) {
						t.Fatalf("%s: core %v, reference %v", where, seed.Core(), core)
					}
					if !slices.Equal(seed.cliques, cliques) {
						t.Fatalf("%s: core cliques differ from the reference", where)
					}
					if !slices.Equal(seed.coreEdge, coreEdge) {
						t.Fatalf("%s: core triangle edge ids %v, reference %v", where, seed.coreEdge, coreEdge)
					}
					checked++
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d candidates checked", checked)
	}
}

// refSeed is the lookup-based WorldPeelSeed construction: the level-k core
// of the view's reference peel, its cliques found by TriangleIndex.ID, and
// each core triangle's three edges located in edges by binary search.
func refSeed(view *graph.TriangleIndex, edges []graph.Edge, k int) (core []int32, cliques [][4]int32, coreEdge []int32) {
	nu := refNucleusPeel(view)
	inCore := make([]bool, view.Len())
	for t := range nu {
		if nu[t] >= k {
			inCore[t] = true
			core = append(core, int32(t))
		}
	}
	for _, t := range core {
		tri := view.Tris[t]
		for _, z := range view.Comps[t] {
			if z <= tri.C {
				continue
			}
			cl := [4]int32{t}
			ok := true
			for i, o := range [3]graph.Triangle{
				graph.MakeTriangle(tri.A, tri.B, z),
				graph.MakeTriangle(tri.A, tri.C, z),
				graph.MakeTriangle(tri.B, tri.C, z),
			} {
				id, found := view.ID(o)
				ok = ok && found && inCore[id]
				cl[i+1] = id
			}
			if ok {
				cliques = append(cliques, cl)
			}
		}
	}
	for _, t := range core {
		tri := view.Tris[t]
		coreEdge = append(coreEdge,
			edgeIndexOf(edges, tri.A, tri.B),
			edgeIndexOf(edges, tri.A, tri.C),
			edgeIndexOf(edges, tri.B, tri.C))
	}
	return core, cliques, coreEdge
}
