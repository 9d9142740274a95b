package core

import (
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
