package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/decomp"
	"probnucleus/internal/exact"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
)

// The shared-world engine changes which PRNG stream each candidate's worlds
// come from (one stream over the candidate union instead of one per
// candidate), so its outputs are not bitwise the per-candidate sampler's.
// The tests below bound the two estimators against each other statistically:
// for every triangle, both estimate the same expectation (each union world
// restricted to the candidate has exactly the candidate's world
// distribution — edges are kept independently with their probabilities
// either way), so their means across seeds must agree within Monte-Carlo
// noise. statSeeds × statSamples gives each mean a standard error around
// 0.010, putting statTol at ≈4σ of the difference.

const (
	statSamples = 400
	statTol     = 0.06
)

var statSeeds = []int64{1, 2, 3, 4, 5, 6}

// weakPerCandidateEstimates is the pre-shared-world estimator kept as a test
// oracle: sample statSamples worlds of the candidate subgraph itself and
// count, per candidate triangle, the worlds whose deterministic nucleus
// decomposition places it inside a k-nucleus.
func weakPerCandidateEstimates(t *testing.T, local *LocalResult, cand decomp.Nucleus, k int, seed int64) map[graph.Triangle]float64 {
	t.Helper()
	h := local.PG.SubgraphOfEdges(cand.Edges)
	counts := make(map[graph.Triangle]int, len(cand.Triangles))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < statSamples; i++ {
		member := exact.WorldNucleusMembership(h.SampleWorld(rng), k)
		for _, tri := range cand.Triangles {
			if member[tri] {
				counts[tri]++
			}
		}
	}
	out := make(map[graph.Triangle]float64, len(counts))
	for _, tri := range cand.Triangles {
		out[tri] = float64(counts[tri]) / float64(statSamples)
	}
	return out
}

// weakSharedWorldEstimates runs the production path: one world-mask bank
// over the union of all candidates, transposed into lane blocks and scored
// per candidate by the word-parallel kernel from the candidate's peel seed.
func weakSharedWorldEstimates(t *testing.T, local *LocalResult, cands []decomp.Nucleus, cand decomp.Nucleus, k int, seed int64) map[graph.Triangle]float64 {
	t.Helper()
	pool := par.NewPool(1)
	defer pool.Close()
	union := unionEdges(cands)
	masks, words := new(mc.Bank).WorldMasksWindow(pool, local.PG.SubgraphOfEdges(union), statSamples, 0, statSamples, seed)
	var ps decomp.WorldPeelSeed
	ps.Seed(local.TI, local.incidence(), cand.TriIDs, decomp.LaneIndex(nil, local.PG.G, union), k)
	losses := make([]int32, ps.Len())
	var lanes mc.Lanes
	lanes.Transpose(masks, statSamples, words)
	var scorer decomp.WorldMembershipScorer
	scoreLanesSerial(&scorer, &ps, &lanes, losses)
	out := make(map[graph.Triangle]float64, len(cand.Triangles))
	for i, tri := range cand.Triangles {
		id := ps.ViewID(cand.TriIDs[i])
		if local.TI.Tris[ps.Root(id)] != tri {
			t.Fatalf("candidate triangle %v missing from its own view", tri)
		}
		if !ps.InCore(id) {
			out[tri] = 0
			continue
		}
		out[tri] = float64(int32(statSamples)-losses[id]) / float64(statSamples)
	}
	return out
}

// TestWeakSharedWorldEstimatorUnbiased: per triangle, the mean weak-path
// estimate across seeds must agree between the shared-world engine and the
// per-candidate oracle within Monte-Carlo tolerance.
func TestWeakSharedWorldEstimatorUnbiased(t *testing.T) {
	pg := fixtures.Fig1()
	const k = 1
	local, err := LocalDecompose(pg, 0.3, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cands := local.NucleiForK(k)
	if len(cands) == 0 {
		t.Fatal("no candidates; statistical test is vacuous")
	}
	for _, cand := range cands {
		sharedMean := make(map[graph.Triangle]float64)
		refMean := make(map[graph.Triangle]float64)
		for _, seed := range statSeeds {
			for tri, p := range weakSharedWorldEstimates(t, local, cands, cand, k, seed) {
				sharedMean[tri] += p / float64(len(statSeeds))
			}
			for tri, p := range weakPerCandidateEstimates(t, local, cand, k, seed) {
				refMean[tri] += p / float64(len(statSeeds))
			}
		}
		for _, tri := range cand.Triangles {
			if d := math.Abs(sharedMean[tri] - refMean[tri]); d > statTol {
				t.Errorf("triangle %v: shared-world mean %.4f vs per-candidate mean %.4f (|Δ| = %.4f > %v)",
					tri, sharedMean[tri], refMean[tri], d, statTol)
			}
		}
	}
}

// TestGlobalSharedWorldEstimatorUnbiased: for the {1,2,3,5} candidate of
// Figure 1, the mean MinProb reported by the shared-world GlobalNuclei must
// agree with the per-candidate global estimator (sample the candidate's own
// worlds, credit its triangles in worlds satisfying the Definition 4
// predicate) within Monte-Carlo tolerance across seeds.
func TestGlobalSharedWorldEstimatorUnbiased(t *testing.T) {
	pg := fixtures.Fig1()
	const k, theta = 1, 0.35
	verts := []int32{1, 2, 3, 5}
	edges := []graph.Edge{{U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 5}, {U: 2, V: 3}, {U: 2, V: 5}, {U: 3, V: 5}}
	tris := []graph.Triangle{{A: 1, B: 2, C: 3}, {A: 1, B: 2, C: 5}, {A: 1, B: 3, C: 5}, {A: 2, B: 3, C: 5}}

	sharedMean, refMean := 0.0, 0.0
	found := 0
	for _, seed := range statSeeds {
		got, err := GlobalNuclei(pg, k, theta, MCOptions{Samples: statSamples, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, nuc := range got {
			if slices.Equal(nuc.Vertices, verts) {
				sharedMean += nuc.MinProb / float64(len(statSeeds))
				found++
				break
			}
		}

		h := pg.SubgraphOfEdges(edges)
		counts := make([]int, len(tris))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < statSamples; i++ {
			world := h.SampleWorld(rng)
			if !exact.IsGlobalNucleusWorld(world, verts, k) {
				continue
			}
			for j, tri := range tris {
				if world.HasEdge(tri.A, tri.B) && world.HasEdge(tri.A, tri.C) && world.HasEdge(tri.B, tri.C) {
					counts[j]++
				}
			}
		}
		min := 1.0
		for _, c := range counts {
			if p := float64(c) / float64(statSamples); p < min {
				min = p
			}
		}
		refMean += min / float64(len(statSeeds))
	}
	if found != len(statSeeds) {
		t.Fatalf("candidate %v validated in %d/%d seeds; estimates are not comparable", verts, found, len(statSeeds))
	}
	if d := math.Abs(sharedMean - refMean); d > statTol {
		t.Errorf("MinProb means: shared-world %.4f vs per-candidate %.4f (|Δ| = %.4f > %v)",
			sharedMean, refMean, d, statTol)
	}
}
