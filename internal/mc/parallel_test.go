package mc

import (
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/graph"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

var diffWorkerCounts = []int{1, 2, 8}

func randomishProbGraph(n int) *probgraph.Graph {
	// A fixed, hand-rolled probability pattern keeps this test free of any
	// PRNG other than the one under test.
	var es []probgraph.ProbEdge
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if (u+2*v)%3 == 0 {
				p := 0.1 + 0.8*float64((u*7+v*13)%10)/10
				es = append(es, probgraph.ProbEdge{U: u, V: v, P: p})
			}
		}
	}
	return probgraph.MustNew(n, es)
}

// sampledWorlds materializes the n worlds of the bank rooted at seed as
// graphs, straight from the determinism contract: chunk c's worlds are
// consecutive probgraph.Graph.SampleWorld draws of the PRNG seeded
// DeriveSeed(seed, c). It is the reference the masks are checked against.
func sampledWorlds(pg *probgraph.Graph, n int, seed int64) []*graph.Graph {
	out := make([]*graph.Graph, 0, n)
	for c := 0; len(out) < n; c++ {
		rng := rand.New(rand.NewSource(DeriveSeed(seed, c)))
		for j := 0; j < WorldChunk && len(out) < n; j++ {
			out = append(out, pg.SampleWorld(rng))
		}
	}
	return out
}

// TestParallelWorldsDifferential: the n-world bank is identical for every
// pool size — the chunk-derived seeding makes world i's content a function
// of (seed, i) only.
func TestParallelWorldsDifferential(t *testing.T) {
	pg := randomishProbGraph(24)
	// 150 worlds spans multiple chunks (WorldChunk = 64) including a ragged
	// final chunk.
	const n = 150
	var base []uint64
	for _, w := range diffWorkerCounts {
		pool := par.NewPool(w)
		got, words := new(Bank).WorldMasksWindow(pool, pg, n, 0, n, 99)
		pool.Close()
		if len(got) != n*words {
			t.Fatalf("pool=%d: %d mask words, want %d worlds × %d", w, len(got), n, words)
		}
		if base == nil {
			base = got
			continue
		}
		if !slices.Equal(got, base) {
			t.Fatalf("pool=%d: bank differs from the one-worker bank", w)
		}
	}
}

// TestParallelWorldsSeedSensitivity: different root seeds must give
// different banks.
func TestParallelWorldsSeedSensitivity(t *testing.T) {
	pg := randomishProbGraph(24)
	pool := par.NewPool(2)
	defer pool.Close()
	a, _ := new(Bank).WorldMasksWindow(pool, pg, 64, 0, 64, 1)
	b, _ := new(Bank).WorldMasksWindow(pool, pg, 64, 0, 64, 2)
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 produced identical 64-world banks (suspicious)")
	}
}

// TestDeriveSeedDecorrelates: adjacent chunks must get distinct seeds, and
// the same (root, chunk) pair must always map to the same seed.
func TestDeriveSeedDecorrelates(t *testing.T) {
	seen := make(map[int64]int)
	for c := 0; c < 4096; c++ {
		s := DeriveSeed(12345, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("chunks %d and %d derived the same seed %d", prev, c, s)
		}
		seen[s] = c
	}
	if DeriveSeed(1, 7) != DeriveSeed(1, 7) {
		t.Error("DeriveSeed is not a pure function")
	}
	if DeriveSeed(1, 7) == DeriveSeed(2, 7) {
		t.Error("different roots derived the same chunk seed")
	}
}

// TestParallelWorldsStatistics: the frequency of each edge's bit across the
// bank's worlds estimates the edge's probability, for edges in both mask
// words (the chunked streams are many streams, not a different
// distribution).
func TestParallelWorldsStatistics(t *testing.T) {
	ps := []float64{0.35, 0.9, 0.05}
	es := make([]probgraph.ProbEdge, 0, 66)
	for v := int32(1); v <= 66; v++ {
		es = append(es, probgraph.ProbEdge{U: 0, V: v, P: ps[int(v)%len(ps)]})
	}
	pg := probgraph.MustNew(67, es)
	n := SampleSize(0.03, 0.01)
	pool := par.NewPool(4)
	defer pool.Close()
	masks, words := new(Bank).WorldMasksWindow(pool, pg, n, 0, n, 7)
	for _, e := range []int{0, 1, 2, 64, 65} { // word 0 and word 1
		hits := 0
		for i := 0; i < n; i++ {
			if masks[i*words+e>>6]&(1<<(uint(e)&63)) != 0 {
				hits++
			}
		}
		p := pg.Edges()[e].P
		if got := float64(hits) / float64(n); got < p-0.03 || got > p+0.03 {
			t.Errorf("edge %d: estimated probability = %v, want %v ± 0.03", e, got, p)
		}
	}
}

// TestBankWorldMasksMatchesPool: a reused Bank must draw bit-identical banks
// to a fresh Bank for every pool size and across calls that grow, shrink,
// and reseed the bank — the in-place PRNG reseeding is stream-equivalent to
// constructing fresh PRNGs.
func TestBankWorldMasksMatchesPool(t *testing.T) {
	pg := randomishProbGraph(24)
	var bank Bank
	pools := make([]*par.Pool, len(diffWorkerCounts))
	for i, w := range diffWorkerCounts {
		pools[i] = par.NewPool(w)
		defer pools[i].Close()
	}
	cases := []struct {
		n    int
		seed int64
	}{
		{150, 42}, // multiple chunks with a ragged tail
		{150, 43}, // same size, new streams
		{40, 42},  // shrink within the backing
		{200, 7},  // grow the backing
	}
	for _, c := range cases {
		ref, words := new(Bank).WorldMasksWindow(pools[0], pg, c.n, 0, c.n, c.seed)
		for i, pool := range pools {
			got, gw := bank.WorldMasksWindow(pool, pg, c.n, 0, c.n, c.seed)
			if gw != words {
				t.Fatalf("n=%d seed=%d pool=%d: words = %d, want %d", c.n, c.seed, diffWorkerCounts[i], gw, words)
			}
			for j := range got {
				if got[j] != ref[j] {
					t.Fatalf("n=%d seed=%d pool=%d: mask word %d differs from a fresh bank",
						c.n, c.seed, diffWorkerCounts[i], j)
				}
			}
		}
	}
}

// TestBankWorldMasksWindowMatchesFullBank: streaming the bank through
// windows of every size — aligned, unaligned, chunk-straddling, degenerate —
// reproduces the full bank mask-for-mask, for every pool size. This is the
// stream-equivalence half of the windowed contract: row (i-lo) of window
// [lo, hi) equals row i of the full bank.
func TestBankWorldMasksWindowMatchesFullBank(t *testing.T) {
	pg := randomishProbGraph(24)
	const n, seed = 150, int64(42) // multiple chunks plus a ragged tail
	refPool := par.NewPool(1)
	ref, words := new(Bank).WorldMasksWindow(refPool, pg, n, 0, n, seed)
	refPool.Close()
	for _, w := range diffWorkerCounts {
		pool := par.NewPool(w)
		var bank Bank
		// Window sizes: single world, sub-chunk, chunk-aligned, unaligned
		// prime, larger than a chunk, whole bank in one window.
		for _, win := range []int{1, 7, 64, 41, 100, n} {
			for lo := 0; lo < n; lo += win {
				hi := lo + win
				if hi > n {
					hi = n
				}
				got, gw := bank.WorldMasksWindow(pool, pg, n, lo, hi, seed)
				if gw != words {
					t.Fatalf("pool=%d win=%d: words = %d, want %d", w, win, gw, words)
				}
				for i := lo; i < hi; i++ {
					for j := 0; j < words; j++ {
						if got[(i-lo)*words+j] != ref[i*words+j] {
							t.Fatalf("pool=%d win=%d: world %d word %d differs from full bank",
								w, win, i, j)
						}
					}
				}
			}
		}
		// An interleaved full-bank draw on the same Bank must stay identical
		// after windowed calls (the per-call state fully resets).
		full, _ := bank.WorldMasksWindow(pool, pg, n, 0, n, seed)
		for j := range full {
			if full[j] != ref[j] {
				t.Fatalf("pool=%d: full bank after windowed draws differs at word %d", w, j)
			}
		}
		pool.Close()
	}
}

// TestBankWorldMasksWindowBoundsMemory: streaming a large world count
// through a fixed window must keep the Bank's backing at window×words mask
// words — the peak-memory half of the windowed contract.
func TestBankWorldMasksWindowBoundsMemory(t *testing.T) {
	pg := randomishProbGraph(24)
	pool := par.NewPool(2)
	defer pool.Close()
	const n, win, seed = 4096, 32, int64(5)
	var bank Bank
	for lo := 0; lo < n; lo += win {
		hi := lo + win
		if hi > n {
			hi = n
		}
		_, words := bank.WorldMasksWindow(pool, pg, n, lo, hi, seed)
		if cap(bank.buf) > win*words {
			t.Fatalf("window [%d,%d): backing grew to %d words, want ≤ window bound %d",
				lo, hi, cap(bank.buf), win*words)
		}
	}
}

// TestBankWorldMasksWindowReuseAllocationFree: at a fixed window shape the
// warmed Bank must stream windows without allocating — same steady-state
// contract as the full-bank draw.
func TestBankWorldMasksWindowReuseAllocationFree(t *testing.T) {
	pg := randomishProbGraph(24)
	pool := par.NewPool(1)
	defer pool.Close()
	const n, win = 256, 64
	var bank Bank
	bank.WorldMasksWindow(pool, pg, n, 0, win, 1)
	lo, seed := 0, int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		lo = (lo + win) % n
		seed++
		bank.WorldMasksWindow(pool, pg, n, lo, lo+win, seed)
	})
	if allocs != 0 {
		t.Errorf("warmed bank allocates %v per windowed draw, want 0", allocs)
	}
}

// TestBankWorldMasksMatchSampledWorlds: bit e of bank world i is set iff
// edge e exists in the i-th materialized world of the same seed — masks and
// graphs describe the same possible worlds.
func TestBankWorldMasksMatchSampledWorlds(t *testing.T) {
	pg := randomishProbGraph(24)
	pool := par.NewPool(2)
	defer pool.Close()
	const n, seed = 100, int64(9)
	var bank Bank
	masks, words := bank.WorldMasksWindow(pool, pg, n, 0, n, seed)
	worlds := sampledWorlds(pg, n, seed)
	edges := pg.Edges()
	for i := 0; i < n; i++ {
		m := masks[i*words : (i+1)*words]
		for e, pe := range edges {
			has := m[e>>6]&(1<<(uint(e)&63)) != 0
			if has != worlds[i].HasEdge(pe.U, pe.V) {
				t.Fatalf("world %d edge %d (%d,%d): mask says %v, sampled world says %v",
					i, e, pe.U, pe.V, has, !has)
			}
		}
	}
}

// TestBankReuseAllocationFree: once warmed at a given (n, graph) shape —
// n is a function of (ε,δ) — redrawing the bank must not allocate: the
// backing and the per-worker PRNGs are reused, only reseeded. This is the
// serving engine's steady-state contract for the world-mask bank.
func TestBankReuseAllocationFree(t *testing.T) {
	pg := randomishProbGraph(24)
	pool := par.NewPool(1)
	defer pool.Close()
	n := SampleSize(0.2, 0.1) // a fixed (ε,δ): every call needs the same n
	var bank Bank
	bank.WorldMasksWindow(pool, pg, n, 0, n, 1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		bank.WorldMasksWindow(pool, pg, n, 0, n, seed)
	})
	if allocs != 0 {
		t.Errorf("warmed bank allocates %v per draw at fixed (ε,δ), want 0", allocs)
	}
}
