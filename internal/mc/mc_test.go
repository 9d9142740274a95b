package mc

import (
	"math"
	"slices"
	"testing"

	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

func TestSampleSize(t *testing.T) {
	// Lemma 4 with ε = δ = 0.1: ⌈ln(20)/0.02⌉ = ⌈149.8⌉ = 150.
	if got := SampleSize(0.1, 0.1); got != 150 {
		t.Errorf("SampleSize(0.1,0.1) = %d, want 150", got)
	}
	if got := SampleSize(0.05, 0.05); got != int(math.Ceil(math.Log(40)/0.005)) {
		t.Errorf("SampleSize(0.05,0.05) = %d", got)
	}
	// Tighter ε needs more samples.
	if SampleSize(0.01, 0.1) <= SampleSize(0.1, 0.1) {
		t.Error("sample size not monotone in ε")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid eps did not panic")
		}
	}()
	SampleSize(0, 0.1)
}

// TestWorldsCount: a window [lo, hi) of the n-world bank comes back as
// hi-lo rows of words mask words each, one bit per canonical edge, and an
// empty window draws nothing.
func TestWorldsCount(t *testing.T) {
	es := make([]probgraph.ProbEdge, 0, 69)
	for v := int32(1); v < 70; v++ {
		es = append(es, probgraph.ProbEdge{U: 0, V: v, P: 0.5})
	}
	pg := probgraph.MustNew(70, es) // 69 edges: two mask words per world
	pool := par.NewPool(2)
	defer pool.Close()
	var b Bank
	for _, w := range []struct{ n, lo, hi int }{{37, 0, 37}, {37, 5, 30}, {200, 64, 190}} {
		masks, words := b.WorldMasksWindow(pool, pg, w.n, w.lo, w.hi, 1)
		if words != 2 || len(masks) != (w.hi-w.lo)*words {
			t.Errorf("window [%d,%d) of %d: %d words × %d, want %d rows of 2 words",
				w.lo, w.hi, w.n, len(masks), words, w.hi-w.lo)
		}
	}
	if masks, words := b.WorldMasksWindow(pool, pg, 37, 9, 9, 1); masks != nil || words != 2 {
		t.Errorf("empty window returned %d mask words (words=%d), want none", len(masks), words)
	}
	if masks, _ := b.WorldMasksWindow(pool, pg, 0, 0, 0, 1); masks != nil {
		t.Errorf("zero-world bank returned %d mask words, want none", len(masks))
	}
}

// TestBankTap: the world-batch tap fires once per non-empty WorldMasksWindow
// call with the window's world count and words per world, after the window
// is filled, and a nil tap changes nothing.
func TestBankTap(t *testing.T) {
	pg := probgraph.MustNew(4, []probgraph.ProbEdge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.9}, {U: 2, V: 3, P: 0.2},
	})
	pool := par.NewPool(1)
	defer pool.Close()

	var b Bank
	ref, refWords := b.WorldMasksWindow(pool, pg, 10, 0, 10, 3)
	refCopy := append([]uint64(nil), ref...)

	var tapped Bank
	calls, worlds, words := 0, 0, 0
	tapped.Tap = func(n, w int) { calls, worlds, words = calls+1, n, w }
	got, gotWords := tapped.WorldMasksWindow(pool, pg, 10, 0, 10, 3)
	if calls != 1 || worlds != 10 || words != refWords {
		t.Errorf("tap saw calls=%d worlds=%d words=%d, want 1/10/%d", calls, worlds, words, refWords)
	}
	if gotWords != refWords || !slices.Equal(got, refCopy) {
		t.Errorf("tapped bank drew different masks than the untapped one")
	}
	tapped.WorldMasksWindow(pool, pg, 10, 6, 10, 3)
	if calls != 2 || worlds != 4 {
		t.Errorf("second call: tap saw calls=%d worlds=%d, want 2/4", calls, worlds)
	}
	tapped.WorldMasksWindow(pool, pg, 10, 6, 6, 3)
	if calls != 2 {
		t.Errorf("empty window fired the tap: calls=%d, want 2", calls)
	}
}
