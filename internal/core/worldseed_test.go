package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/exact"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// refSeed is the reference form of a candidate's world-check seed, built the
// way the global kernel built it before seeds were cut from per-call union
// tables, with the candidate indexed afresh: assemble the candidate graph
// from the closure's sorted edge set, enumerate its triangles and order them
// by parent id (the view), take the positive-degree vertices, and resolve
// every completion's other triangles by triangle-id lookup in the view.
type refSeed struct {
	h     *graph.Graph
	hti   *graph.TriangleIndex
	pids  []int32 // parent id of each view triangle
	verts []int32
	// other[t]: three entries per completion of view triangle t, the view
	// ids of the clique's other three triangles.
	other [][]int32
}

func referenceSeed(parent *graph.TriangleIndex, nv int, closure []int32) *refSeed {
	edges := appendTriangleEdges(nil, parent, closure)
	r := &refSeed{h: graph.FromSortedEdges(nv, edges)}
	fresh := graph.NewTriangleIndex(r.h, par.NewPool(1))
	order := make([]int, fresh.Len())
	pid := make([]int32, fresh.Len())
	for i, tri := range fresh.Tris {
		id, ok := parent.ID(tri)
		if !ok {
			panic("reference seed: candidate triangle missing from parent")
		}
		order[i], pid[i] = i, id
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(pid[a], pid[b]) })
	var tris []graph.Triangle
	var comps [][]int32
	for _, i := range order {
		r.pids = append(r.pids, pid[i])
		tris = append(tris, fresh.Tris[i])
		comps = append(comps, fresh.Comps[i])
	}
	view := graph.IndexFromParts(tris, comps, lexIDs(tris))
	r.hti = view
	for v := int32(0); int(v) < nv; v++ {
		if r.h.Degree(v) > 0 {
			r.verts = append(r.verts, v)
		}
	}
	for t := 0; t < view.Len(); t++ {
		tri := view.Tris[t]
		var other []int32
		for _, z := range view.Comps[t] {
			for _, o := range [3]graph.Triangle{
				graph.MakeTriangle(tri.A, tri.B, z),
				graph.MakeTriangle(tri.A, tri.C, z),
				graph.MakeTriangle(tri.B, tri.C, z),
			} {
				id, ok := view.ID(o)
				if !ok {
					panic("reference seed: 4-clique triangle missing from candidate view")
				}
				other = append(other, id)
			}
		}
		r.other = append(r.other, other)
	}
	return r
}

// qualifying is the exact oracle's global world predicate on world
// restricted to the candidate: whether it holds, and if so the view ids of
// the restricted world's triangles, ascending — the triangles a qualifying
// world credits.
func (r *refSeed) qualifying(world *graph.Graph, k int) ([]int32, bool) {
	var es []graph.Edge
	for _, e := range r.h.Edges() {
		if world.HasEdge(e.U, e.V) {
			es = append(es, e)
		}
	}
	wh := graph.FromSortedEdges(r.h.NumVertices(), es)
	if !exact.IsGlobalNucleusWorld(wh, r.verts, k) {
		return nil, false
	}
	var ids []int32
	for _, tri := range wh.Triangles() {
		id, _ := r.hti.ID(tri)
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, true
}

// lexIDs returns the ids of tris sorted by Triangle.Compare: the lookup
// order of an index assembled from parts, as the artifact loader does.
func lexIDs(tris []graph.Triangle) []int32 {
	ids := make([]int32, len(tris))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return tris[a].Compare(tris[b]) })
	return ids
}

// withSortedIDIndex rebuilds a prepared graph's triangle index as an
// artifact loader does: the same triangles and completions, with the
// lexicographic id order supplied from outside instead of built.
func withSortedIDIndex(pre *Prepared) *Prepared {
	ti := pre.Index()
	return NewPreparedFromParts(pre.Graph(), graph.IndexFromParts(ti.Tris, ti.Comps, lexIDs(ti.Tris)), nil)
}

// seedRef is one candidate's reference: its closure, the reference seed,
// and for every world of the shared bank the exact oracle's verdict and
// credited view ids. It depends only on the closure's triangles and the
// bank, never on how the index is laid out, so one is built per candidate
// and replayed for every index form of the same graph.
type seedRef struct {
	closure []int32
	ref     *refSeed
	wantOK  []bool
	wantIDs [][]int32
}

// checkSeedsAgainstReference grows every deduplicated candidate of the
// level-k candidate space of local, seeds it through the estimator, and
// requires the seed to equal the reference seed — view triangles in order,
// union ids, completion lists, completion view and union ids, vertex set —
// and the lane kernel (ScanLanes, each world scanned as a one-lane block) to
// credit exactly the triangles the exact oracle's per-world predicate
// credits on the reference view, for every world of a shared bank. The
// references are taken from *refs in candidate order, after checking that
// the candidate grew to the same closure, and built and appended where
// *refs runs out. It returns the number of candidates checked.
func checkSeedsAgainstReference(t *testing.T, name string, pg *probgraph.Graph, local *LocalResult, k int, pool *par.Pool, refs *[]seedRef) int {
	t.Helper()
	cs := newCandidateSpace(local, k)
	if len(cs.triangles) == 0 {
		return 0
	}
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	const n = 4
	masks, words := new(mc.Bank).WorldMasksWindow(pool, pg.SubgraphOfEdges(union), n, 0, n, 5)
	worlds := make([]*graph.Graph, n)
	for i := range worlds {
		var es []graph.Edge
		for e, edge := range union {
			if masks[i*words+(e>>6)]&(1<<(uint(e)&63)) != 0 {
				es = append(es, edge)
			}
		}
		worlds[i] = graph.FromSortedEdges(pg.NumVertices(), es)
	}
	est := planEstimator(t, pool, local, k, n, 0.5)
	est.setWindow(masks, n)
	var viaLanes decomp.WorldChecker
	var lanes mc.Lanes
	checked := 0
	for c, closure := range candidateClosures(cs, k) {
		where := fmt.Sprintf("%s k=%d candidate=%d", name, k, c)
		if checked == len(*refs) {
			sr := seedRef{closure: slices.Clone(closure), ref: referenceSeed(cs.ti, pg.NumVertices(), closure)}
			for _, world := range worlds {
				ids, ok := sr.ref.qualifying(world, k)
				sr.wantOK, sr.wantIDs = append(sr.wantOK, ok), append(sr.wantIDs, ids)
			}
			*refs = append(*refs, sr)
		}
		sr := &(*refs)[checked]
		if !slices.Equal(sr.closure, closure) {
			t.Fatalf("%s: candidate %d grew to %v, the reference's closure is %v", where, checked, closure, sr.closure)
		}
		ref := sr.ref
		checked++
		m := est.seedCandidate(0, closure, k)
		if m != ref.hti.Len() {
			t.Fatalf("%s: seed view has %d triangles, reference %d", where, m, ref.hti.Len())
		}
		for j := 0; j < m; j++ {
			uid := est.workers[0].seed.AliveUID(j)
			if rid := est.wu.Root(uid); rid != ref.pids[j] || cs.ti.Tris[rid] != ref.hti.Tris[j] {
				t.Fatalf("%s: view triangle %d is root %d %v, reference root %d %v",
					where, j, rid, cs.ti.Tris[rid], ref.pids[j], ref.hti.Tris[j])
			}
			other := est.workers[0].seed.Completions(j)
			if !slices.Equal(other, ref.other[j]) {
				t.Fatalf("%s: triangle %d completions %v, reference %v", where, j, other, ref.other[j])
			}
			otherUID := make([]int32, len(other))
			for i, o := range other {
				otherUID[i] = est.workers[0].seed.AliveUID(int(o))
			}
			// The completion vertex is the one the first other triangle
			// (tri.A, tri.B, z) adds to the triangle.
			tri := ref.hti.Tris[j]
			var zs []int32
			for i := 0; i < len(otherUID); i += 3 {
				o := cs.ti.Tris[est.wu.Root(otherUID[i])]
				for _, v := range [3]int32{o.A, o.B, o.C} {
					if v != tri.A && v != tri.B {
						zs = append(zs, v)
					}
				}
			}
			if !slices.Equal(zs, ref.hti.Comps[j]) {
				t.Fatalf("%s: triangle %d completion list %v, reference %v", where, j, zs, ref.hti.Comps[j])
			}
		}
		verts := est.workers[0].seed.AppendVertices(nil)
		slices.Sort(verts)
		if !slices.Equal(verts, ref.verts) {
			t.Fatalf("%s: seed vertices %v, reference %v", where, verts, ref.verts)
		}
		counts := make([]int32, m)
		for i := range worlds {
			clear(counts)
			lanes.Transpose(masks[i*words:(i+1)*words], 1, words)
			viaLanes.ScanLanes(&est.workers[0].seed, lanes.Block(0), lanes.Valid(0), counts)
			var got []int32
			for id, c := range counts {
				if c != 0 {
					got = append(got, int32(id))
				}
			}
			wantIDs, wantOK := sr.wantIDs[i], sr.wantOK[i]
			if !slices.Equal(got, wantIDs) {
				t.Fatalf("%s world %d: lane kernel credits %v, reference (%v, %v)",
					where, i, got, wantOK, wantIDs)
			}
		}
	}
	return checked
}

// TestWorldCheckSeedMatchesReference: the candidate-proportional seed cut
// from per-call union tables must equal the reference seed built from a
// fresh index of the candidate graph, for every candidate of small named
// datasets (levels 0 and 1) and of dense random graphs (levels 0 to 3, where
// level-2 and level-3 candidates exist), on both a freshly prepared index
// and an artifact-style one (lookup order supplied from outside).
func TestWorldCheckSeedMatchesReference(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	type input struct {
		name  string
		pg    *probgraph.Graph
		theta float64
		maxK  int
		// growAll also checks the k = 0 enumeration against growing every
		// seed, which is cheap on small graphs only.
		growAll bool
	}
	inputs := []input{
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.03))), 0.1, 1, false},
		{"dblp", dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.02))), 0.3, 1, false},
		{"flickr", dataset.Generate(dataset.MustLoad("flickr", dataset.Scale(0.01))), 0.1, 1, false},
	}
	rng := rand.New(rand.NewSource(131))
	for i := 0; i < 8; i++ {
		inputs = append(inputs, input{fmt.Sprintf("random%d", i), randomProbGraph(rng, 10, 0.9), 0.001, 3, true})
	}
	total := 0
	for _, in := range inputs {
		fresh, err := Prepare(in.pg, 1)
		if err != nil {
			t.Fatal(err)
		}
		// One reference per candidate and level, shared by both index forms.
		refs := make([][]seedRef, in.maxK+1)
		for _, pre := range []*Prepared{fresh, withSortedIDIndex(fresh)} {
			local, err := localDecompose(&run{pool: pool, pre: pre}, LocalRequest{Theta: in.theta, Mode: ModeDP})
			if err != nil {
				t.Fatal(err)
			}
			if in.growAll {
				checkCandidates(t, in.name, newCandidateSpace(local, 0), 0)
			}
			for k := 0; k <= in.maxK; k++ {
				total += checkSeedsAgainstReference(t, in.name, in.pg, local, k, pool, &refs[k])
			}
		}
	}
	if total < 50 {
		t.Fatalf("differential corpus too small: %d candidates", total)
	}
	t.Logf("checked %d candidates against the reference seed", total)
}
