package decomp

import (
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
)

// worldOf draws a random "world" of g: each of g's edges kept with
// probability keep, plus — when extra is true — a few random edges outside
// g over the same vertex range, mimicking a shared world sampled over a
// candidate union that this candidate is only part of.
func worldOf(rng *rand.Rand, g *graph.Graph, keep float64, extra bool) *graph.Graph {
	var es []graph.Edge
	for _, e := range g.Edges() {
		if rng.Float64() < keep {
			es = append(es, e)
		}
	}
	if extra {
		n := int32(g.NumVertices())
		for i := 0; i < 5; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u != v && !g.HasEdge(u, v) {
				es = append(es, graph.Edge{U: u, V: v}.Canon())
			}
		}
	}
	return graph.FromEdges(g.NumVertices(), es)
}

// refNonQualifying is the per-world deletion cascade the word-parallel
// kernel replaced, kept as its reference: the view ids of the seed's core
// triangles that do NOT belong to a deterministic k-nucleus of one world —
// the core triangles that lost one of their own edges, plus the
// support-starvation cascade those losses trigger through the core's
// 4-cliques. has reports whether the edge on union lane l survives in the
// world. Every clique of a dead triangle dies once, decrementing the
// supports of its live members, and a member starved below k dies in turn.
func refNonQualifying(seed *WorldPeelSeed, has func(l int32) bool) []int32 {
	dead := make([]bool, seed.Len())
	clDead := make([]bool, len(seed.cliques))
	var out, work []int32
	for i, t := range seed.core {
		e := seed.coreEdge[3*i : 3*i+3]
		if !has(e[0]) || !has(e[1]) || !has(e[2]) {
			dead[t] = true
			out = append(out, t)
			work = append(work, t)
		}
	}
	if seed.k == 0 {
		return out
	}
	sup := make([]int32, seed.Len())
	for t := range sup {
		sup[t] = seed.clOff[t+1] - seed.clOff[t]
	}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ci := range seed.clIDs[seed.clOff[t]:seed.clOff[t+1]] {
			if clDead[ci] {
				continue
			}
			clDead[ci] = true
			for _, o := range seed.cliques[ci] {
				if dead[o] {
					continue
				}
				if sup[o]--; int(sup[o]) < seed.k {
					dead[o] = true
					out = append(out, o)
					work = append(work, o)
				}
			}
		}
	}
	return out
}

// refNonQualifyingGraph is refNonQualifying on a materialized world, the
// seed's lanes being indexes into union.
func refNonQualifyingGraph(seed *WorldPeelSeed, world *graph.Graph, union []graph.Edge) []int32 {
	return refNonQualifying(seed, func(l int32) bool {
		e := union[l]
		return world.HasEdge(e.U, e.V)
	})
}

// refNonQualifyingMask is refNonQualifying on a union-world mask.
func refNonQualifyingMask(seed *WorldPeelSeed, mask []uint64) []int32 {
	return refNonQualifying(seed, func(l int32) bool { return maskHas(mask, l) })
}

// seedWhole binds seed at level k to the candidate spanned by every
// triangle of ti, the index of g, with union lanes over g's edge list:
// view ids are then ti's ids.
func seedWhole(seed *WorldPeelSeed, g *graph.Graph, ti *graph.TriangleIndex, inc *TriIncidence, k int) {
	all := make([]int32, ti.Len())
	for i := range all {
		all[i] = int32(i)
	}
	seed.Seed(ti, inc, all, LaneIndex(nil, g, g.Edges()), k)
}

// coreMinus returns the seed's core triangles not in dead, ascending.
func coreMinus(seed *WorldPeelSeed, dead []int32) []int32 {
	var out []int32
	for _, t := range seed.core {
		if !slices.Contains(dead, t) {
			out = append(out, t)
		}
	}
	return out
}

// qualifyingViaLanes scores worlds (union-world masks, at most 64) as one
// lane block through ScoreLanes and returns, per world, the core triangles
// qualifying in it. Each world is scored once more alone (only its lane
// valid), which turns the per-triangle loss counts into that world's set;
// the all-lanes score must equal the sum of those sets.
func qualifyingViaLanes(t *testing.T, ws *WorldMembershipScorer, seed *WorldPeelSeed, masks [][]uint64) [][]int32 {
	t.Helper()
	words := len(masks[0])
	var flat []uint64
	for _, m := range masks {
		flat = append(flat, m...)
	}
	var l mc.Lanes
	l.Transpose(flat, len(masks), words)
	all := make([]int32, seed.Len())
	ws.ScoreLanes(seed, l.Block(0), l.Valid(0), all)
	sum := make([]int32, seed.Len())
	out := make([][]int32, len(masks))
	for w := range masks {
		loss := make([]int32, seed.Len())
		ws.ScoreLanes(seed, l.Block(0), 1<<uint(w), loss)
		for _, tr := range seed.core {
			if loss[tr] == 0 {
				out[w] = append(out[w], tr)
			}
			sum[tr] += loss[tr]
		}
	}
	if !slices.Equal(all, sum) {
		t.Fatalf("block loss counts %v, sum of single-lane counts %v", all, sum)
	}
	return out
}

// worldMask returns world ∩ candidate as a mask over the candidate's own
// edge list — the union a candidate scored alone is mapped to.
func worldMask(edges []graph.Edge, world *graph.Graph) []uint64 {
	mask := make([]uint64, (len(edges)+63)/64)
	for ei, e := range edges {
		if world.HasEdge(e.U, e.V) {
			mask[ei>>6] |= 1 << (uint(ei) & 63)
		}
	}
	return mask
}

// TestSeededWorldPeelMatchesFullPeel: for random candidates, worlds (with
// and without union edges outside the candidate), and levels k, both the
// reference loss cascade and the word-parallel kernel must select exactly
// the triangles the full per-world peel of the exact oracle selects on the
// world restricted to the candidate. This is the
// drop-in proof for scoring a world from the candidate's seed instead of
// peeling it.
func TestSeededWorldPeelMatchesFullPeel(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 11, 0.55)
		ti := newIndex(g)
		if ti.Len() == 0 {
			continue
		}
		inc := NewTriIncidence(ti, g)
		edges := g.Edges()
		var lanes WorldMembershipScorer
		var seed WorldPeelSeed
		for k := 0; k <= 3; k++ {
			seedWhole(&seed, g, ti, inc, k)
			var masks [][]uint64
			var want [][]int32
			for w := 0; w < 6; w++ {
				world := worldOf(rng, g, 0.75, w%2 == 1)
				q := oracleMembers(ti, intersect(world, g), k)
				want = append(want, q)
				masks = append(masks, worldMask(edges, world))
				if got := coreMinus(&seed, refNonQualifyingGraph(&seed, world, edges)); !slices.Equal(got, q) {
					t.Fatalf("trial %d k=%d world %d: reference cascade %v, full peel %v",
						trial, k, w, got, q)
				}
			}
			for w, got := range qualifyingViaLanes(t, &lanes, &seed, masks) {
				if !slices.Equal(got, want[w]) {
					t.Fatalf("trial %d k=%d world %d: word kernel %v, full peel %v",
						trial, k, w, got, want[w])
				}
			}
		}
	}
}

// TestWorldMembershipScorerResetReuse: one scorer and one seed, rebound
// across candidates of very different sizes, must reproduce what fresh
// instances compute and what the exact oracle's per-world peel selects,
// with candidates interleaved so stale aliveness, worklist flags or clique
// tables from a larger candidate would surface on a smaller one.
func TestWorldMembershipScorerResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	sizes := []int{14, 6, 12, 5, 9}
	type cand struct {
		g     *graph.Graph
		ti    *graph.TriangleIndex
		inc   *TriIncidence
		edges []graph.Edge
	}
	cands := make([]cand, len(sizes))
	for i, n := range sizes {
		g := randomGraph(rng, n, 0.6)
		ti := newIndex(g)
		cands[i] = cand{g: g, ti: ti, inc: NewTriIncidence(ti, g), edges: g.Edges()}
	}
	var shared WorldMembershipScorer
	var sharedSeed WorldPeelSeed
	for round := 0; round < 3; round++ { // revisit candidates to exercise reuse
		for i, c := range cands {
			for k := 0; k <= 2; k++ {
				var freshSeed WorldPeelSeed
				seedWhole(&sharedSeed, c.g, c.ti, c.inc, k)
				seedWhole(&freshSeed, c.g, c.ti, c.inc, k)
				var masks [][]uint64
				var oracle [][]int32
				for w := 0; w < 4; w++ {
					world := worldOf(rng, c.g, 0.7, w%2 == 0)
					masks = append(masks, worldMask(c.edges, world))
					oracle = append(oracle, oracleMembers(c.ti, intersect(world, c.g), k))
				}
				var fresh WorldMembershipScorer
				want := qualifyingViaLanes(t, &fresh, &freshSeed, masks)
				got := qualifyingViaLanes(t, &shared, &sharedSeed, masks)
				for w := range want {
					if !slices.Equal(got[w], want[w]) {
						t.Fatalf("round %d cand %d k=%d world %d: reused word kernel %v, fresh %v",
							round, i, k, w, got[w], want[w])
					}
					if !slices.Equal(want[w], oracle[w]) {
						t.Fatalf("round %d cand %d k=%d world %d: word kernel %v, oracle %v",
							round, i, k, w, want[w], oracle[w])
					}
				}
			}
		}
	}
}

// unionWith merges g's edges with a few random extra edges over the same
// vertex range into a sorted duplicate-free union list — the edge space a
// shared world bank would be sampled over when g is only one candidate of
// many.
func unionWith(rng *rand.Rand, g *graph.Graph) []graph.Edge {
	es := slices.Clone(g.Edges())
	n := int32(g.NumVertices())
	for i := 0; i < 6; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u != v && !g.HasEdge(u, v) {
			es = append(es, graph.Edge{U: u, V: v}.Canon())
		}
	}
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	return slices.Compact(es)
}

// maskAndWorld draws a random world over the union: each union edge kept
// with probability keep, returned both as a bitmask over the union ids and
// as a materialized graph.
func maskAndWorld(rng *rand.Rand, nv int, union []graph.Edge, keep float64) ([]uint64, *graph.Graph) {
	mask := make([]uint64, (len(union)+63)/64)
	var es []graph.Edge
	for ei, e := range union {
		if rng.Float64() < keep {
			mask[ei>>6] |= 1 << (uint(ei) & 63)
			es = append(es, e)
		}
	}
	return mask, graph.FromSortedEdges(nv, es)
}

// TestNonQualifyingMaskMatchesGraph: the word kernel over union-world
// masks must leave, in every world, exactly the core triangles the
// reference cascade leaves on the materialized world, across candidates
// embedded in larger unions: the root is the union graph, and the candidate
// its triangles whose edges all lie in g, so lanes are read through
// LaneIndex's union ids.
func TestNonQualifyingMaskMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 11, 0.55)
		union := unionWith(rng, g)
		rg := graph.FromSortedEdges(g.NumVertices(), union)
		rti := newIndex(rg)
		var tris []int32
		for u, tri := range rti.Tris {
			if g.HasEdge(tri.A, tri.B) && g.HasEdge(tri.A, tri.C) && g.HasEdge(tri.B, tri.C) {
				tris = append(tris, int32(u))
			}
		}
		if len(tris) == 0 {
			continue
		}
		inc := NewTriIncidence(rti, rg)
		laneOf := LaneIndex(nil, rg, union)
		var seed WorldPeelSeed
		var ws WorldMembershipScorer
		for k := 0; k <= 3; k++ {
			seed.Seed(rti, inc, tris, laneOf, k)
			var masks [][]uint64
			var want [][]int32
			for w := 0; w < 6; w++ {
				mask, world := maskAndWorld(rng, g.NumVertices(), union, 0.7)
				masks = append(masks, mask)
				want = append(want, coreMinus(&seed, refNonQualifyingGraph(&seed, world, union)))
				if got := coreMinus(&seed, refNonQualifyingMask(&seed, mask)); !slices.Equal(got, want[w]) {
					t.Fatalf("trial %d k=%d world %d: mask-form reference %v, graph-form reference %v",
						trial, k, w, got, want[w])
				}
			}
			for w, got := range qualifyingViaLanes(t, &ws, &seed, masks) {
				if !slices.Equal(got, want[w]) {
					t.Fatalf("trial %d k=%d world %d: word kernel %v, reference cascade %v",
						trial, k, w, got, want[w])
				}
			}
		}
	}
}

// TestMaskQualifyingMatchesGraphChecker: the mask forms of the global world
// predicate — a WorldCheckSeed cut from union tables, evaluated per world by
// the reference refMaskChecker on a union-world mask and its aliveness row,
// and by ScanLanes on the world as a one-lane block — must agree with the
// exact oracle on the materialized world restricted to the candidate: same
// verdict, and the credited triangles are that world's triangles, for
// candidates spanned by a random subset of the union's triangles and worlds
// sampled over a union larger than the candidate. The seed's view ids must
// ascend, its extras must be exactly the view triangles outside the
// seeding subset, and seeding from the subset in shuffled order must cut
// the same view.
func TestMaskQualifyingMatchesGraphChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	checked, extras := 0, 0
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 10, 0.6)
		union := unionWith(rng, g)
		uti, wu := unionIndex(g.NumVertices(), union)
		var tris []int32
		var es []graph.Edge
		for u, tri := range uti.Tris {
			if g.HasEdge(tri.A, tri.B) && g.HasEdge(tri.A, tri.C) && g.HasEdge(tri.B, tri.C) && rng.Float64() < 0.7 {
				tris = append(tris, int32(u))
				es = append(es, graph.Edge{U: tri.A, V: tri.B}, graph.Edge{U: tri.A, V: tri.C}, graph.Edge{U: tri.B, V: tri.C})
			}
		}
		if len(tris) == 0 {
			continue
		}
		h := graph.FromEdges(g.NumVertices(), es)
		hti := newIndex(h)
		var verts []int32
		for v := int32(0); int(v) < h.NumVertices(); v++ {
			if h.Degree(v) > 0 {
				verts = append(verts, v)
			}
		}
		var seed, shuffled WorldCheckSeed
		var viaLanes WorldChecker
		var viaMask refMaskChecker
		var lanes mc.Lanes
		row := make([]uint64, (wu.Len()+63)/64)
		perm := slices.Clone(tris)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for k := 0; k <= 2; k++ {
			seed.Seed(wu, tris, k)
			if seed.Len() != hti.Len() {
				t.Fatalf("trial %d k=%d: seed view has %d triangles, candidate has %d", trial, k, seed.Len(), hti.Len())
			}
			// Every union triangle is a triangle of uti, so union ids are
			// uti ids and tris is ascending in both.
			shuffled.Seed(wu, perm, k)
			var view, outside []int32
			for j := 0; j < seed.Len(); j++ {
				view = append(view, seed.AliveUID(j))
				if _, in := slices.BinarySearch(tris, seed.AliveUID(j)); !in {
					outside = append(outside, seed.AliveUID(j))
				}
				if j >= shuffled.Len() || shuffled.AliveUID(j) != seed.AliveUID(j) {
					t.Fatalf("trial %d k=%d: shuffled seeding order cut a different view", trial, k)
				}
			}
			if !slices.IsSorted(view) {
				t.Fatalf("trial %d k=%d: view ids %v not ascending", trial, k, view)
			}
			if !slices.Equal(seed.Extras(), outside) || !slices.Equal(shuffled.Extras(), outside) {
				t.Fatalf("trial %d k=%d: extras %v (shuffled %v), view triangles outside the seeding set %v",
					trial, k, seed.Extras(), shuffled.Extras(), outside)
			}
			extras += len(outside)
			got := seed.AppendVertices(nil)
			slices.Sort(got)
			if !slices.Equal(got, verts) {
				t.Fatalf("trial %d k=%d: seed vertices %v, candidate vertices %v", trial, k, got, verts)
			}
			for w := 0; w < 8; w++ {
				mask, world := maskAndWorld(rng, g.NumVertices(), union, 0.8)
				fillAlive(wu, row, mask)
				wh := intersect(world, h)
				wantOK := GlobalWorldOracle(wh, verts, k)
				gotIDs, gotOK := viaMask.qualifying(&seed, mask, row)
				if gotOK != wantOK {
					t.Fatalf("trial %d k=%d world %d: mask verdict %v, oracle verdict %v",
						trial, k, w, gotOK, wantOK)
				}
				lanes.Transpose(mask, 1, len(mask))
				counts := make([]int32, seed.Len())
				viaLanes.ScanLanes(&seed, lanes.Block(0), lanes.Valid(0), counts)
				var laneIDs []int32
				for id, c := range counts {
					if c != 0 {
						laneIDs = append(laneIDs, int32(id))
					}
				}
				switch {
				case !gotOK && laneIDs != nil:
					t.Fatalf("trial %d k=%d world %d: lane kernel credits %v in a failing world", trial, k, w, laneIDs)
				case gotOK && !slices.Equal(laneIDs, gotIDs):
					t.Fatalf("trial %d k=%d world %d: lane kernel credits %v, mask reference %v", trial, k, w, laneIDs, gotIDs)
				}
				checked++
				if !wantOK {
					continue
				}
				// A qualifying world credits each of its triangles; compare
				// them as triangles, since the seed names them by view id.
				want := newIndex(wh).Tris
				var gotTris []graph.Triangle
				for _, id := range gotIDs {
					gotTris = append(gotTris, uti.Tris[seed.AliveUID(int(id))])
				}
				slices.SortFunc(want, graph.Triangle.Compare)
				slices.SortFunc(gotTris, graph.Triangle.Compare)
				if !slices.Equal(gotTris, want) {
					t.Fatalf("trial %d k=%d world %d: mask triangles %v, world triangles %v",
						trial, k, w, gotTris, want)
				}
			}
		}
	}
	if checked == 0 || extras == 0 {
		t.Fatalf("vacuous: %d worlds checked, %d extra view triangles", checked, extras)
	}
}

// TestWorldCheckerCandidateRestrictedConnectivity: union-world edges outside
// the candidate must not connect the candidate's vertices. Two K4s form the
// candidate; a third triangle of the union bridges them. In the world that
// keeps every union edge, the lane kernel must fail the candidate at k = 0,
// as the exact oracle does on the world restricted to the candidate, while
// the oracle on the whole world sees the vertices joined.
func TestWorldCheckerCandidateRestrictedConnectivity(t *testing.T) {
	clique := func(b *graph.Builder, vs ...int32) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				if err := b.AddEdge(vs[i], vs[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cb := graph.NewBuilder(9)
	clique(cb, 0, 1, 2, 3)
	clique(cb, 4, 5, 6, 7)
	cand := cb.Build()
	wb := graph.NewBuilder(9)
	clique(wb, 0, 1, 2, 3)
	clique(wb, 4, 5, 6, 7)
	clique(wb, 3, 4, 8) // union triangle outside the candidate
	world := wb.Build()

	union := world.Edges()
	uti, wu := unionIndex(world.NumVertices(), union)
	var tris []int32
	for u, tri := range uti.Tris {
		if cand.HasEdge(tri.A, tri.B) && cand.HasEdge(tri.A, tri.C) && cand.HasEdge(tri.B, tri.C) {
			tris = append(tris, int32(u))
		}
	}
	var seed WorldCheckSeed
	seed.Seed(wu, tris, 0)
	verts := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	got := seed.AppendVertices(nil)
	slices.Sort(got)
	if !slices.Equal(got, verts) {
		t.Fatalf("seed vertices %v, want %v", got, verts)
	}
	mask := make([]uint64, (len(union)+63)/64)
	for e := range union {
		mask[e>>6] |= 1 << (uint(e) & 63)
	}
	var lanes mc.Lanes
	lanes.Transpose(mask, 1, len(mask))
	counts := make([]int32, seed.Len())
	var wc WorldChecker
	wc.ScanLanes(&seed, lanes.Block(0), lanes.Valid(0), counts)
	if slices.ContainsFunc(counts, func(c int32) bool { return c != 0 }) {
		t.Error("lane kernel connected two candidate components through a foreign edge")
	}
	if GlobalWorldOracle(intersect(world, cand), verts, 0) {
		t.Error("oracle connected the candidate restricted to its own edges")
	}
	if !GlobalWorldOracle(world, verts, 0) {
		t.Error("oracle should see the whole world connected")
	}
}
