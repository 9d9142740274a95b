package decomp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
)

// TestScoreLanesMatchesReferenceCascade is the word kernel's differential
// test: over krogan, dblp and flickr at small scales, K8 and dense random
// graphs, and k = 0..4, scored candidates (deterministic k-nuclei, against
// worlds drawn over the union of all candidates) must get, for every core
// triangle, exactly the loss count the per-world reference cascade gives —
// for world counts n that end in partial 64-lane blocks, windows that are
// not multiples of 64, and 1, 2 and 8 workers scoring blocks into
// per-worker loss slices merged by integer sum, as the w-NuDecomp kernel
// does. A window of at most 64 worlds is one block, which one worker scores
// whatever the pool size, so those windows run on one worker only.
func TestScoreLanesMatchesReferenceCascade(t *testing.T) {
	ns := []int{1, 63, 64, 65, 100, 130}
	windows := []int{1, 7, 64, 65, 0} // 0: the whole bank as one window
	maxN := slices.Max(ns)
	pools := map[int]*par.Pool{}
	for _, w := range []int{1, 2, 8} {
		pools[w] = par.NewPool(w)
		defer pools[w].Close()
	}
	graphs := incidenceGraphs(t)
	// At scale 0.02 flickr is one 14k-triangle candidate at every k, which
	// the cross product below would score thousands of times.
	delete(graphs, "flickr@0.02")
	graphs["flickr@0.01"] = dataset.Generate(dataset.MustLoad("flickr", dataset.Scale(0.01))).G
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(37))
	var seed WorldPeelSeed
	var laneOf []int32
	var lanes mc.Lanes
	scorers := make([]WorldMembershipScorer, 8)
	losses := make([][]int32, 8)
	checked := 0
	for _, name := range names {
		g := graphs[name]
		root := newIndex(g)
		inc := NewTriIncidence(root, g)
		nu := refNucleusPeel(root)
		for k := 0; k <= 4; k++ {
			cands := KNuclei(root, inc, nu, k)
			if len(cands) == 0 {
				continue
			}
			var union []graph.Edge
			for _, c := range cands {
				union = append(union, c.Edges...)
			}
			slices.SortFunc(union, func(a, b graph.Edge) int {
				if a.U != b.U {
					return int(a.U - b.U)
				}
				return int(a.V - b.V)
			})
			union = slices.Compact(union)
			laneOf = LaneIndex(laneOf, g, union)
			words := (len(union) + 63) / 64
			// One bank of maxN worlds per (graph, k); every n scores its
			// prefix. Keep probabilities are mixed per world so some worlds
			// lose little and cascades run deep in others.
			bank := make([]uint64, maxN*words)
			for w := 0; w < maxN; w++ {
				keep := 0.6 + 0.35*rng.Float64()
				for e := range union {
					if rng.Float64() < keep {
						bank[w*words+e/64] |= 1 << (uint(e) % 64)
					}
				}
			}
			// Score the largest, the smallest and one middle candidate.
			picks := []int{0, len(cands) / 2, len(cands) - 1}
			for _, ci := range slices.Compact(picks) {
				cand := cands[ci]
				seed.Seed(root, inc, cand.TriIDs, laneOf, k)
				m := seed.Len()
				// Reference: per-world dead sets, accumulated per prefix.
				perWorld := make([][]int32, maxN)
				for w := range perWorld {
					perWorld[w] = refNonQualifyingMask(&seed, bank[w*words:(w+1)*words])
				}
				for _, n := range ns {
					want := make([]int32, m)
					for w := 0; w < n; w++ {
						for _, tr := range perWorld[w] {
							want[tr]++
						}
					}
					for _, window := range windows {
						if window == 0 {
							window = n
						}
						for _, workers := range []int{1, 2, 8} {
							if workers > 1 && window <= 64 {
								continue
							}
							pool := pools[workers]
							got := make([]int32, m)
							for lo := 0; lo < n; lo += window {
								hi := min(lo+window, n)
								lanes.Transpose(bank[lo*words:hi*words], hi-lo, words)
								for w := range losses[:workers] {
									losses[w] = slices.Grow(losses[w][:0], m)[:m]
									clear(losses[w])
								}
								pool.ForWorker(lanes.Blocks(), func(worker, b int) {
									scorers[worker].ScoreLanes(&seed, lanes.Block(b), lanes.Valid(b), losses[worker])
								})
								for _, l := range losses[:workers] {
									for tr, c := range l {
										got[tr] += c
									}
								}
							}
							if !slices.Equal(got, want) {
								where := fmt.Sprintf("%s k=%d candidate %d n=%d window=%d workers=%d", name, k, ci, n, window, workers)
								for tr := range got {
									if got[tr] != want[tr] {
										t.Fatalf("%s: triangle %d lost %d worlds, reference cascade %d", where, tr, got[tr], want[tr])
									}
								}
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked < 300 {
		t.Fatalf("only %d (candidate, n, window, workers) cases checked", checked)
	}
}
