package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"probnucleus/internal/fixtures"
	"probnucleus/internal/obs"
)

// checkPreparedCase runs all three semantics for c against a shared prepared
// artifact and byte-compares each result against the package-level reference
// — the prepare/execute counterpart of checkEngineCase.
func checkPreparedCase(ctx context.Context, eng *Engine, pre *Prepared, c engineCase) error {
	local, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: c.theta})
	if err != nil {
		return fmt.Errorf("%s: prepared local: %w", c.name, err)
	}
	if !reflect.DeepEqual(local.Nucleusness, c.wantLocal) {
		return fmt.Errorf("%s: prepared local nucleusness differs from LocalDecompose", c.name)
	}
	req := NucleiRequest{K: c.k, Theta: c.theta, Samples: c.samples, Seed: c.seed}
	glob, err := eng.GlobalPrepared(ctx, pre, req)
	if err != nil {
		return fmt.Errorf("%s: prepared global: %w", c.name, err)
	}
	if !reflect.DeepEqual(glob, c.wantGlob) {
		return fmt.Errorf("%s: prepared global nuclei differ from GlobalNuclei", c.name)
	}
	weak, err := eng.WeakPrepared(ctx, pre, req)
	if err != nil {
		return fmt.Errorf("%s: prepared weak: %w", c.name, err)
	}
	if !reflect.DeepEqual(weak, c.wantWeak) {
		return fmt.Errorf("%s: prepared weak nuclei differ from WeaklyGlobalNuclei", c.name)
	}
	return nil
}

// TestPreparedMatchesPerCall: the prepare/execute split is a dispatch
// concern, never a semantic one — every semantics executed against a
// prepared artifact must reproduce the package-level results, each of which
// prepares its graph per call, byte-for-byte, across worker counts.
func TestPreparedMatchesPerCall(t *testing.T) {
	cases := engineCases(t)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := NewEngine(1, workers)
			defer eng.Close()
			for _, c := range cases {
				pre, err := eng.Prepare(context.Background(), c.pg)
				if err != nil {
					t.Fatalf("%s: prepare: %v", c.name, err)
				}
				if err := checkPreparedCase(context.Background(), eng, pre, c); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestPackagePrepareMatchesEngine: the package-level Prepare builds the same
// artifact the engine's does — its accessors agree with the graph, and
// results through the engine agree with the references.
func TestPackagePrepareMatchesEngine(t *testing.T) {
	c := engineCases(t)[0]
	pre, err := Prepare(c.pg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Graph() != c.pg {
		t.Error("Prepared.Graph() is not the input graph")
	}
	if got, want := len(pre.Edges()), c.pg.NumEdges(); got != want {
		t.Errorf("Prepared.Edges() has %d edges, want %d", got, want)
	}
	if pre.Triangles() == 0 || pre.Cliques() == 0 {
		t.Errorf("fig1 artifact reports %d triangles, %d cliques — want both > 0",
			pre.Triangles(), pre.Cliques())
	}
	eng := NewEngine(1, 1)
	defer eng.Close()
	if err := checkPreparedCase(context.Background(), eng, pre, c); err != nil {
		t.Error(err)
	}
}

// TestPreparedConcurrentShared: N goroutines share ONE prepared artifact per
// graph and issue mixed local/global/weak requests against it, every result
// byte-compared against the package-level references. Run under -race
// (scripts/ci.sh does), this pins the artifact's concurrency contract: the
// triangle index is read-only after construction, and all mutable peeling
// state lives in per-request scratch.
func TestPreparedConcurrentShared(t *testing.T) {
	cases := engineCases(t)
	eng := NewEngine(3, 2)
	defer eng.Close()
	pres := make([]*Prepared, len(cases))
	for i, c := range cases {
		pre, err := eng.Prepare(context.Background(), c.pg)
		if err != nil {
			t.Fatalf("%s: prepare: %v", c.name, err)
		}
		pres[i] = pre
	}
	const goroutines = 8
	const iters = 4
	errc := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Per-goroutine stride, as in the engine stress test: shards
				// see interleaved graph sizes, and every artifact is hit by
				// several goroutines at once.
				j := (g + i) % len(cases)
				if err := checkPreparedCase(context.Background(), eng, pres[j], cases[j]); err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPrepareBuildsIndexOnce: the observer's accounting proves the split
// actually skips work — Prepare enumerates exactly one index, and every
// query against the artifact (all three semantics) enumerates zero more,
// while each Prepare pays for its own build.
func TestPrepareBuildsIndexOnce(t *testing.T) {
	m := new(obs.Metrics)
	eng := NewEngine(1, 1, WithObserver(m))
	defer eng.Close()
	ctx := context.Background()
	pg := fixtures.Fig1()

	pre, err := eng.Prepare(ctx, pg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.IndexBuilds(); got != 1 {
		t.Fatalf("after Prepare: %d index builds, want 1", got)
	}
	req := NucleiRequest{K: 1, Theta: 0.35, Samples: 50, Seed: 5}
	if _, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.GlobalPrepared(ctx, pre, req); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WeakPrepared(ctx, pre, req); err != nil {
		t.Fatal(err)
	}
	if got := m.IndexBuilds(); got != 1 {
		t.Fatalf("after three prepared queries: %d index builds, want still 1", got)
	}
	// The engine keeps no artifacts of its own: preparing the graph again
	// pays one more build.
	if _, err := eng.Prepare(ctx, pg); err != nil {
		t.Fatal(err)
	}
	if got := m.IndexBuilds(); got != 2 {
		t.Fatalf("after a second Prepare: %d index builds, want 2", got)
	}
}

// TestPreparedValidation: prepared execution validates like the
// package-level functions — bad θ and bad k are the same sentinels, and no
// artifact state is consumed by a rejected request.
func TestPreparedValidation(t *testing.T) {
	eng := NewEngine(1, 1)
	defer eng.Close()
	ctx := context.Background()
	pre, err := eng.Prepare(ctx, fixtures.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0}); !errors.Is(err, ErrTheta) {
		t.Errorf("θ=0 via prepared local: %v, want ErrTheta", err)
	}
	if _, err := eng.GlobalPrepared(ctx, pre, NucleiRequest{K: -1, Theta: 0.3}); !errors.Is(err, ErrNegativeK) {
		t.Errorf("k=-1 via prepared global: %v, want ErrNegativeK", err)
	}
	// The artifact still works after rejections.
	if _, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35}); err != nil {
		t.Errorf("valid query after rejections: %v", err)
	}
}
