package mc

import (
	"math/bits"
	"math/rand"
	"testing"

	"probnucleus/internal/par"
)

// TestLanesTransposeMatchesRows: every lane bit of the transposed window
// equals the matching bit of the row masks, for windows that are and are not
// multiples of 64 worlds and rows wider than one word; lanes past the window
// are zero and Valid marks exactly the window's lanes.
func TestLanesTransposeMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var l Lanes // one Lanes across shapes: storage reuse must not leak bits
	for _, rows := range []int{1, 7, 63, 64, 65, 100, 130} {
		for _, words := range []int{1, 2, 3} {
			masks := make([]uint64, rows*words)
			for i := range masks {
				masks[i] = rng.Uint64()
			}
			l.Transpose(masks, rows, words)
			if want := (rows + 63) / 64; l.Blocks() != want {
				t.Fatalf("rows=%d: %d blocks, want %d", rows, l.Blocks(), want)
			}
			for b := 0; b < l.Blocks(); b++ {
				col := l.Block(b)
				if len(col) != 64*words {
					t.Fatalf("rows=%d words=%d: block %d has %d lane words, want %d", rows, words, b, len(col), 64*words)
				}
				for e := 0; e < 64*words; e++ {
					for j := 0; j < 64; j++ {
						r := b*64 + j
						want := r < rows && masks[r*words+e/64]>>(e%64)&1 == 1
						if got := col[e]>>j&1 == 1; got != want {
							t.Fatalf("rows=%d words=%d: edge %d world %d lane bit %v, row bit %v", rows, words, e, r, got, want)
						}
					}
				}
				if got, want := bits.OnesCount64(l.Valid(b)), min(64, rows-b*64); got != want || l.Valid(b)>>uint(got) != 0 {
					t.Fatalf("rows=%d: block %d valid mask %#x, want the low %d lanes", rows, b, l.Valid(b), want)
				}
			}
		}
	}
}

// TestLanesTransposeReuseAllocationFree: once a Lanes has held a window of
// a given shape, transposing the next window of that shape allocates
// nothing.
func TestLanesTransposeReuseAllocationFree(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	pg := randomishProbGraph(30)
	var bank Bank
	var l Lanes
	const n, win = 256, 100
	masks, words := bank.WorldMasksWindow(pool, pg, n, 0, win, 3)
	l.Transpose(masks, win, words)
	allocs := testing.AllocsPerRun(50, func() {
		l.Transpose(masks, win, words)
	})
	if allocs != 0 {
		t.Errorf("Transpose allocates %v per window, want 0", allocs)
	}
}
