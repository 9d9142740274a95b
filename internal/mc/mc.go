// Package mc holds the Monte-Carlo sampling machinery for the global and
// weakly-global decompositions: the Hoeffding sample-size bound (Lemma 4 of
// the paper), the possible-world mask bank every kernel draws its worlds
// from (Bank.WorldMasksWindow), and the lane-major transpose the kernels
// scan (Lanes).
//
// # Determinism contract
//
// An n-world bank partitions the world index range [0, n) into fixed chunks
// of WorldChunk consecutive worlds. Chunk c is drawn from its own PRNG
// seeded DeriveSeed(root, c) — a SplitMix64 mix of the root seed and the
// chunk index — with one Float64 per edge of the graph's canonical edge
// list, world after world, the same stream probgraph.Graph.SampleWorld
// consumes. The chunk layout depends only on n, so world i's mask is a
// function of (root, i) alone: never of the worker count, of which worker
// claims the chunk, or of the windows [0, n) is streamed through. Workers
// claim chunks dynamically; any per-world reduction that is insensitive to
// processing order (per-slot writes, integer counting) is therefore
// reproducible from the root seed alone.
package mc

import (
	"math"
	"math/rand"

	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// SampleSize returns the number of possible worlds n = ⌈ln(2/δ)/(2ε²)⌉
// needed so that the empirical estimate of any [0,1]-bounded mean is within
// ε of its expectation with probability at least 1−δ (Hoeffding, Lemma 4).
func SampleSize(eps, delta float64) int {
	if !(eps > 0 && eps <= 1) || !(delta > 0 && delta <= 1) {
		panic("mc: eps and delta must lie in (0,1]")
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// WorldChunk is the number of consecutive worlds drawn from one derived
// PRNG stream. It amortizes PRNG construction without tying world content to
// the worker count (see the package determinism contract).
const WorldChunk = 64

// DeriveSeed maps (root seed, chunk index) to the seed of the chunk's PRNG
// with the SplitMix64 finalizer, decorrelating the streams of adjacent
// chunks far better than root+chunk would.
func DeriveSeed(root int64, chunk int) int64 {
	z := uint64(root) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Bank draws possible worlds as bitmasks over a probabilistic graph's
// canonical edge list: bit e of a world's row (at masks[row*words+e/64], bit
// e%64) is set iff edge pg.Edges()[e] exists in that world. Kernels
// precompute the union edge ids of their triangles once, then evaluate each
// world with O(1) bit tests instead of per-world graph construction.
//
// The Bank keeps the flat mask backing and the per-worker PRNGs across
// calls, growing them only when a call needs more than any call before it
// ever did. A server answering many queries at the same (ε,δ) — the world
// count is a function of (ε,δ) — over similarly-sized candidate unions
// therefore reaches a steady state where drawing a window allocates nothing;
// engine shards own one Bank each for exactly that.
//
// A Bank serves one call at a time, and the masks it returns alias its
// backing: they are valid until the next WorldMasksWindow call on the same
// Bank.
type Bank struct {
	// Tap, when non-nil, is invoked once at the end of every non-empty
	// WorldMasksWindow call with the window's world count and the mask words
	// per world — the engine's world-batch observability hook. It runs on the
	// calling goroutine, after the window is filled.
	Tap func(worlds, words int)

	buf  []uint64
	rngs []*rand.Rand
	fill func(worker, c int)
	// Per-call parameters read by the hoisted fill closure (one closure per
	// Bank, not one per call, keeping the steady state allocation-free).
	edges  []probgraph.ProbEdge
	masks  []uint64
	words  int
	seed   int64
	winLo  int
	winHi  int
	chunk0 int
}

// WorldMasksWindow draws the window [lo, hi) of the n-world bank of pg
// rooted at seed into the Bank's reusable backing and returns its hi-lo rows
// of words mask words each; [0, n) draws the whole bank. Row (i-lo) is
// byte-identical to row i of the whole bank, for every pool size and every
// way of cutting [0, n) into windows, because world i's content is a
// function of its chunk seed DeriveSeed(seed, i/WorldChunk) and its offset
// within the chunk alone (see the package determinism contract): a window
// that starts mid-chunk reseeds that chunk's PRNG and burns the draws of the
// skipped leading worlds (one Float64 per edge each), then fills its rows
// from the identical stream position the whole bank would have reached.
//
// Peak backing memory is (hi-lo)×words mask words — the window, not the bank.
// Streaming a huge world count through a fixed window therefore bounds peak
// memory while reproducing the whole bank mask-for-mask; callers accumulate
// order-insensitive per-world reductions across windows, and must finish
// reducing one window before drawing the next (see the Bank aliasing
// contract).
func (b *Bank) WorldMasksWindow(pool *par.Pool, pg *probgraph.Graph, n, lo, hi int, seed int64) (masks []uint64, words int) {
	if lo < 0 || hi > n || lo > hi {
		panic("mc: WorldMasksWindow range out of [0, n]")
	}
	edges := pg.Edges()
	words = (len(edges) + 63) / 64
	if hi == lo {
		return nil, words
	}
	if total := (hi - lo) * words; cap(b.buf) < total {
		b.buf = make([]uint64, total)
	}
	for len(b.rngs) < pool.Workers() {
		b.rngs = append(b.rngs, rand.New(rand.NewSource(0)))
	}
	if b.fill == nil {
		b.fill = func(worker, c int) {
			// Reseeding in place replays the exact stream rand.New with the
			// same source seed would produce, so chunk c's worlds remain a
			// function of DeriveSeed(seed, c) alone — never of which worker
			// (or Bank generation, or window cut) draws them.
			ca := b.chunk0 + c
			rng := b.rngs[worker]
			rng.Seed(DeriveSeed(b.seed, ca))
			clo := ca * WorldChunk
			chi := clo + WorldChunk
			if chi > b.winHi { // hi ≤ n, so this also clips the bank's ragged tail
				chi = b.winHi
			}
			// A window starting mid-chunk skips the chunk's leading worlds but
			// must leave the PRNG where the whole bank would: burn their draws.
			for i := clo; i < b.winLo && i < chi; i++ {
				for range b.edges {
					rng.Float64()
				}
			}
			if clo < b.winLo {
				clo = b.winLo
			}
			for i := clo; i < chi; i++ {
				row := i - b.winLo
				m := b.masks[row*b.words : (row+1)*b.words]
				clear(m) // the backing is reused; stale bits must not survive
				for e := range b.edges {
					if rng.Float64() < b.edges[e].P {
						m[e>>6] |= 1 << (uint(e) & 63)
					}
				}
			}
		}
	}
	b.edges, b.masks, b.words, b.seed = edges, b.buf[:(hi-lo)*words], words, seed
	b.winLo, b.winHi, b.chunk0 = lo, hi, lo/WorldChunk
	chunks := (hi+WorldChunk-1)/WorldChunk - b.chunk0
	pool.ForWorker(chunks, b.fill)
	masks = b.masks
	b.edges, b.masks = nil, nil // don't pin the caller's graph between calls
	if b.Tap != nil {
		b.Tap(hi-lo, words)
	}
	return masks, words
}
