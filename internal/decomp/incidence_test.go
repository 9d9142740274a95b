package decomp

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"probnucleus/internal/bucket"
	"probnucleus/internal/dataset"
	"probnucleus/internal/graph"
	"probnucleus/internal/par"
	"probnucleus/internal/uf"
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

// refNucleusPeel is nucleusPeel over the reference adjacency.
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
	gs := map[string]*graph.Graph{"K5": completeGraph(5), "K8": completeGraph(8)}
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

// peelCases builds, for every corpus graph, the index shapes peels meet: an
// enumerated root, an artifact-style root assembled from parts, and the
// restriction of the root to a random edge subgraph, indexed afresh (as the
// oracle indexes a world), with its incidence keyed by the subgraph's CSR.
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
		root := newIndex(g)
		loaded := loadedIndex(root)
		h := worldOf(rng, g, 0.8, false)
		view, _ := restrict(root, h)
		cases = append(cases,
			peelCase{name + "/root", root, NewTriIncidence(root, g)},
			peelCase{name + "/byTri", loaded, NewTriIncidence(loaded, g)},
			peelCase{name + "/view", view, NewTriIncidence(view, h)},
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

// TestRemoveBatchMatchesRemoveTriangle: removing triangles a batch at a
// time — batches of random size, batches of one among them, over a random
// order, with one BatchRemoval per adjacency reused throughout — kills
// exactly the cliques RemoveTriangle on each batch member in turn kills,
// leaving the same supports and liveness behind, and reports every live
// triangle outside the batch that lost cliques once, with exactly the
// slots those removals report for it; a batch of one reports them
// ascending. Half the batches set a Keep filter: the triangles it leaves
// out lose the same cliques but are not reported. Pools of 1, 2 and 8 workers, removing the same batches in
// lockstep, report the same triangles and slots in the same order.
func TestRemoveBatchMatchesRemoveTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	workers := []int{1, 2, 8}
	pools := make([]*par.Pool, len(workers))
	for i, w := range workers {
		pools[i] = par.NewPool(w)
		defer pools[i].Close()
	}
	bs := make([]BatchRemoval, len(workers))
	for _, c := range peelCases(t) {
		n := c.ti.Len()
		ref := NewCliqueAdjFromIndex(c.ti, c.inc)
		cas := make([]*CliqueAdj, len(workers))
		for i := range cas {
			cas[i] = NewCliqueAdjFromIndex(c.ti, c.inc)
			bs[i].Reset(n)
		}
		order := rng.Perm(n)
		for len(order) > 0 {
			size := 1
			if rng.Intn(3) > 0 {
				size = 1 + rng.Intn(min(len(order), 1+n/4))
			}
			batch := make([]int32, size)
			in := make(map[int32]bool, size)
			for i, t := range order[:size] {
				batch[i] = int32(t)
				in[int32(t)] = true
			}
			order = order[size:]
			var keep func(int32) bool
			if rng.Intn(2) == 0 {
				left := int32(rng.Intn(3))
				keep = func(o int32) bool { return o%3 != left }
			}
			for i := range bs {
				bs[i].Keep = keep
			}
			want := map[int32][]int32{}
			for _, t := range batch {
				ref.RemoveTriangle(t, func(o int32, slot int) {
					if !in[o] && (keep == nil || keep(o)) {
						want[o] = append(want[o], int32(slot))
					}
				})
			}
			for i, ca := range cas {
				b := &bs[i]
				ca.RemoveBatch(pools[i], batch, b)
				if b.Len() != len(want) {
					t.Fatalf("%s workers=%d: batch of %d affected %d triangles, RemoveTriangle %d", c.name, workers[i], size, b.Len(), len(want))
				}
				seen := make(map[int32]bool, b.Len())
				for k := 0; k < b.Len(); k++ {
					o := b.Tri(k)
					if seen[o] {
						t.Fatalf("%s workers=%d: triangle %d reported twice", c.name, workers[i], o)
					}
					seen[o] = true
					if size == 1 && k > 0 && o <= b.Tri(k-1) {
						t.Fatalf("%s workers=%d: affected triangles of a batch of one not ascending", c.name, workers[i])
					}
					got := slices.Clone(b.Slots(k))
					slices.Sort(got)
					w := want[o]
					slices.Sort(w)
					if !slices.Equal(got, w) {
						t.Fatalf("%s workers=%d: triangle %d lost slots %v, RemoveTriangle %v", c.name, workers[i], o, b.Slots(k), w)
					}
					if i > 0 && (o != bs[0].Tri(k) || !slices.Equal(b.Slots(k), bs[0].Slots(k))) {
						t.Fatalf("%s workers=%d: affected triangle %d is %d with slots %v, at 1 worker %d with %v",
							c.name, workers[i], k, o, b.Slots(k), bs[0].Tri(k), bs[0].Slots(k))
					}
				}
				if !slices.Equal(ca.AliveCount, ref.AliveCount) || !slices.Equal(ca.Dead, ref.Dead) {
					t.Fatalf("%s workers=%d: supports or dead flags differ from RemoveTriangle's", c.name, workers[i])
				}
				if !slices.Equal(ca.alive, ref.alive) {
					t.Fatalf("%s workers=%d: clique liveness differs from RemoveTriangle's", c.name, workers[i])
				}
			}
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

// refKNuclei is the lookup-based KNuclei the incidence walk replaced, kept
// as the differential reference: from every triangle at level ≥ k it
// resolves each completion's three other triangles by vertex triple through
// TriangleIndex.ID, unions the clique when all four reach level k, keeps the
// triangles with at least one such clique, and spans each component's
// vertices and edges through maps.
func refKNuclei(ti *graph.TriangleIndex, nu []int, k int) []Nucleus {
	n := ti.Len()
	u := uf.New(n)
	levelClique := func(t int32, z int32) ([3]int32, bool) {
		tri := ti.Tris[t]
		var ids [3]int32
		for i, o := range [3]graph.Triangle{
			graph.MakeTriangle(tri.A, tri.B, z),
			graph.MakeTriangle(tri.A, tri.C, z),
			graph.MakeTriangle(tri.B, tri.C, z),
		} {
			id, ok := ti.ID(o)
			if !ok || nu[id] < k {
				return ids, false
			}
			ids[i] = id
		}
		return ids, true
	}
	for t := int32(0); int(t) < n; t++ {
		if nu[t] < k {
			continue
		}
		for _, z := range ti.Comps[t] {
			if ids, ok := levelClique(t, z); ok {
				for _, id := range ids {
					u.Union(t, id)
				}
			}
		}
	}
	groups := u.Groups(1, func(t int32) bool {
		if nu[t] < k {
			return false
		}
		for _, z := range ti.Comps[t] {
			if _, ok := levelClique(t, z); ok {
				return true
			}
		}
		return false
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
		slices.SortFunc(nuc.Edges, compareEdges)
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

// compareEdges orders edges by (U, V).
func compareEdges(a, b graph.Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// seedGraphs is the corpus of the KNuclei and WorldPeelSeed differentials:
// the incidence corpus plus sparse random graphs, whose nuclei are many and
// small.
func seedGraphs(t *testing.T) map[string]*graph.Graph {
	gs := incidenceGraphs(t)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 4; i++ {
		gs[fmt.Sprintf("sparse%d", i)] = randomGraph(rng, 24, 0.35)
	}
	return gs
}

// TestKNucleiMatchesReference: KNuclei over the incidence walk must return
// exactly the nuclei of the lookup-based reference — same triangles, ids,
// vertices, edges and order — at k = 0..4, for the deterministic
// nucleusness and for arbitrary per-triangle levels (ℓ-NuDecomp's ν, with
// −1 for triangles below θ, is no deterministic peel).
func TestKNucleiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	checked := 0
	for name, g := range seedGraphs(t) {
		ti, nu := NucleusNumbers(g)
		inc := NewTriIncidence(ti, g)
		scrambled := make([]int, len(nu))
		for i := range scrambled {
			scrambled[i] = rng.Intn(MaxNucleusness(nu)+3) - 1
		}
		for _, levels := range []struct {
			name string
			nu   []int
		}{{"nucleusness", nu}, {"scrambled", scrambled}} {
			for k := 0; k <= 4; k++ {
				got, want := KNuclei(ti, inc, levels.nu, k), refKNuclei(ti, levels.nu, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s k=%d: KNuclei differs from the reference:\n got %v\nwant %v", name, levels.name, k, got, want)
				}
				checked += len(want)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d nuclei compared", checked)
	}
}

// TestWorldPeelSeedMatchesReference: one seed, cut from the root incidence
// for candidate after candidate (scratch reused across sizes and graphs),
// must reproduce what the view-and-lookup construction gives for the
// restriction of the root to the candidate's edge subgraph: the same view triangles with the
// same ids, the level-k core of the view's reference peel, the same core
// cliques in the same order, and every core triangle's edges as the same
// union lanes. Candidates are the largest, a middle and the smallest
// deterministic k-nucleus, and a random ~60% of the largest one's
// triangles, which need be neither connected nor closed; both root index
// kinds are cut from.
func TestWorldPeelSeedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var seed WorldPeelSeed
	var laneOf []int32
	checked := 0
	for name, g := range seedGraphs(t) {
		root := newIndex(g)
		inc := NewTriIncidence(root, g)
		nu := refNucleusPeel(root)
		for _, parent := range []*graph.TriangleIndex{root, loadedIndex(root)} {
			for k := 0; k <= 3; k++ {
				cands := KNuclei(root, inc, nu, k)
				if len(cands) == 0 {
					continue
				}
				var cands3 [][]int32
				for _, ci := range slices.Compact([]int{0, len(cands) / 2, len(cands) - 1}) {
					cands3 = append(cands3, cands[ci].TriIDs)
				}
				var part []int32
				for _, tr := range cands[0].TriIDs {
					if rng.Float64() < 0.6 {
						part = append(part, tr)
					}
				}
				if len(part) > 0 {
					cands3 = append(cands3, part)
				}
				var union []graph.Edge
				for _, c := range cands {
					union = append(union, c.Edges...)
				}
				slices.SortFunc(union, compareEdges)
				union = slices.Compact(union)
				laneOf = LaneIndex(laneOf, g, union)
				for ci, tris := range cands3 {
					where := fmt.Sprintf("%s k=%d candidate %d", name, k, ci)
					view, pids := restrict(parent, graph.FromSortedEdges(g.NumVertices(), spannedEdges(parent, tris)))
					seed.Seed(parent, inc, tris, laneOf, k)
					if !slices.Equal(seed.root, pids) {
						t.Fatalf("%s: view triangles %v, reference %v", where, seed.root, pids)
					}
					for v, tr := range seed.root {
						if seed.ViewID(tr) != int32(v) {
							t.Fatalf("%s: ViewID(%d) = %d, want %d", where, tr, seed.ViewID(tr), v)
						}
					}
					core, cliques, coreEdge := refSeed(view, union, k)
					if !slices.Equal(seed.core, core) {
						t.Fatalf("%s: core %v, reference %v", where, seed.core, core)
					}
					if !slices.Equal(seed.Cliques(), cliques) {
						t.Fatalf("%s: core cliques %v, reference %v", where, seed.Cliques(), cliques)
					}
					if !slices.Equal(seed.coreEdge, coreEdge) {
						t.Fatalf("%s: core triangle lanes %v, reference %v", where, seed.coreEdge, coreEdge)
					}
					wantIDs := make([][]int32, seed.Len())
					for ci, cl := range cliques {
						for _, v := range cl {
							wantIDs[v] = append(wantIDs[v], int32(ci))
						}
					}
					for v, want := range wantIDs {
						if got := seed.clIDs[seed.clOff[v]:seed.clOff[v+1]]; !slices.Equal(got, want) {
							t.Fatalf("%s: triangle %d in cliques %v, reference %v", where, v, got, want)
						}
					}
					checked++
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d candidates checked", checked)
	}
}

// refSeed is the view-based WorldPeelSeed construction the incidence cut
// replaced: the level-k core of the view's reference peel, its cliques
// found by TriangleIndex.ID, and each core triangle's three edges located
// in the union edge list by binary search.
func refSeed(view *graph.TriangleIndex, union []graph.Edge, k int) (core []int32, cliques [][4]int32, coreEdge []int32) {
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
			edgeIndexOf(union, tri.A, tri.B),
			edgeIndexOf(union, tri.A, tri.C),
			edgeIndexOf(union, tri.B, tri.C))
	}
	return core, cliques, coreEdge
}
