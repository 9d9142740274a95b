package core

import (
	"slices"
	"sync"
	"testing"

	"probnucleus/internal/dataset"
)

// kroganLocal is the package's shared global-kernel fixture: the exact DP
// local decomposition of krogan at scale 0.08 and θ = 0.1, built once per
// test binary for every test that cuts candidates from it. The result is
// read-only; each test builds its own candidate space and estimator on it.
var kroganLocal = sync.OnceValues(func() (*LocalResult, error) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	return LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
})

// sharedKroganLocal returns kroganLocal, failing tb if it could not be built.
func sharedKroganLocal(tb testing.TB) *LocalResult {
	tb.Helper()
	local, err := kroganLocal()
	if err != nil {
		tb.Fatal(err)
	}
	return local
}

// candidateClosures returns the distinct level-k candidates of cs, in
// enumeration order (candidateSpace.candidates). The closures alias the
// enumeration's arena, which nothing else writes.
func candidateClosures(cs *candidateSpace, k int) [][]int32 {
	cands, _ := cs.candidates(k, nil) // a nil stop never ends it early
	out := make([][]int32, cands.len())
	for c := range out {
		out[c] = cands.set(int32(c))
	}
	return out
}

// checkCandidates requires cs.candidates at level k to equal the reference
// enumeration that grows a closure from every seed of C and keeps the new
// ones in the order first grown — at k = 0 too, where candidates skips the
// seeds an earlier closure already holds.
func checkCandidates(t *testing.T, name string, cs *candidateSpace, k int) {
	t.Helper()
	var want triSetDedup
	for _, seed := range cs.triangles {
		want.insert(cs.closure(seed, k))
	}
	got := candidateClosures(cs, k)
	if len(got) != want.len() {
		t.Fatalf("%s k=%d: %d candidates, growing every seed gives %d", name, k, len(got), want.len())
	}
	for c, closure := range got {
		if !slices.Equal(closure, want.set(int32(c))) {
			t.Fatalf("%s k=%d: candidate %d is %v, growing every seed gives %v", name, k, c, closure, want.set(int32(c)))
		}
	}
}
