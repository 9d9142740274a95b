package registry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"probnucleus/internal/core"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/obs"
	"probnucleus/internal/probgraph"
)

func newTestRegistry(t *testing.T, opts ...Option) (*Registry, *core.Engine, *obs.Metrics) {
	t.Helper()
	m := new(obs.Metrics)
	eng := core.NewEngine(2, 2, core.WithObserver(m))
	t.Cleanup(eng.Close)
	return New(eng, append([]Option{WithObserver(m)}, opts...)...), eng, m
}

func TestRegistryLifecycle(t *testing.T) {
	reg, _, _ := newTestRegistry(t)
	ctx := context.Background()

	if _, err := reg.Get("fig1"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("Get before Put: err = %v, want ErrUnknownGraph", err)
	}
	if err := reg.Delete("fig1"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("Delete before Put: err = %v, want ErrUnknownGraph", err)
	}

	h, err := reg.Put(ctx, "fig1", fixtures.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "fig1" || h.Version != 1 || h.Triangles == 0 {
		t.Fatalf("Put handle = %+v, want name fig1, version 1, triangles > 0", h)
	}
	if _, err := reg.Add(ctx, "fig1", fixtures.Fig1()); !errors.Is(err, ErrDuplicateGraph) {
		t.Fatalf("Add over taken name: err = %v, want ErrDuplicateGraph", err)
	}
	if _, err := reg.Add(ctx, "k5", fixtures.Fig3cK5()); err != nil {
		t.Fatal(err)
	}

	// Replacing Put bumps the version.
	h, err = reg.Put(ctx, "fig1", fixtures.Fig2aNucleus())
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 2 {
		t.Fatalf("replacing Put version = %d, want 2", h.Version)
	}
	got, err := reg.Get("fig1")
	if err != nil || got != h {
		t.Fatalf("Get after replace = %+v (%v), want %+v", got, err, h)
	}

	list := reg.List()
	if len(list) != 2 || list[0].Name != "fig1" || list[1].Name != "k5" {
		t.Fatalf("List = %+v, want [fig1 k5] sorted", list)
	}
	if s := reg.Stats(); s.Graphs != 2 {
		t.Fatalf("Stats.Graphs = %d, want 2", s.Graphs)
	}

	if err := reg.Delete("fig1"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("fig1"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("Get after Delete: err = %v, want ErrUnknownGraph", err)
	}

	if _, err := reg.Put(ctx, "", fixtures.Fig1()); err == nil {
		t.Fatal("Put with empty name succeeded")
	}
}

func TestRegistryUnknownGraphQueries(t *testing.T) {
	reg, _, _ := newTestRegistry(t)
	ctx := context.Background()
	if _, err := reg.Local(ctx, "nope", core.LocalRequest{Theta: 0.3}); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("Local: err = %v, want ErrUnknownGraph", err)
	}
	req := core.NucleiRequest{K: 1, Theta: 0.3, Samples: 50, Seed: 1}
	if _, err := reg.Global(ctx, "nope", req); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("Global: err = %v, want ErrUnknownGraph", err)
	}
	if _, err := reg.Weak(ctx, "nope", req); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("Weak: err = %v, want ErrUnknownGraph", err)
	}
}

// TestRegistryValidationOrder: the pinned error order (negative k reported
// before a bad θ, validation before any cache or registry work) must survive
// the cached path.
func TestRegistryValidationOrder(t *testing.T) {
	reg, _, _ := newTestRegistry(t)
	ctx := context.Background()
	if _, err := reg.Put(ctx, "fig1", fixtures.Fig1()); err != nil {
		t.Fatal(err)
	}
	req := core.NucleiRequest{K: -1, Theta: -5}
	if _, err := reg.Global(ctx, "fig1", req); !errors.Is(err, core.ErrNegativeK) {
		t.Errorf("Global: err = %v, want ErrNegativeK before ErrTheta", err)
	}
	if _, err := reg.Weak(ctx, "fig1", req); !errors.Is(err, core.ErrNegativeK) {
		t.Errorf("Weak: err = %v, want ErrNegativeK before ErrTheta", err)
	}
	if _, err := reg.Local(ctx, "fig1", core.LocalRequest{Theta: 0}); !errors.Is(err, core.ErrTheta) {
		t.Errorf("Local: err = %v, want ErrTheta", err)
	}
	// Validation fires before the name lookup, so even an unknown graph
	// reports the malformed request first.
	if _, err := reg.Global(ctx, "nope", req); !errors.Is(err, core.ErrNegativeK) {
		t.Errorf("Global unknown graph: err = %v, want ErrNegativeK", err)
	}
}

// TestRegistryDifferential is the registry≡package-level differential of the
// acceptance criteria: every semantics served through the registry — cold
// (miss) and warm (hit) — must be byte-identical to the package-level
// from-scratch path, and the warm pass must rebuild zero triangle indexes.
func TestRegistryDifferential(t *testing.T) {
	cases := []struct {
		name    string
		pg      *probgraph.Graph
		k       int
		theta   float64
		samples int
		seed    int64
	}{
		{"fig1", fixtures.Fig1(), 1, 0.35, 300, 5},
		{"k5", fixtures.Fig3cK5(), 2, 0.01, 200, 7},
		{"complete", fixtures.CompleteProbGraph(8, 0.9), 2, 0.2, 100, 3},
	}
	reg, _, m := newTestRegistry(t)
	ctx := context.Background()
	for _, c := range cases {
		if _, err := reg.Put(ctx, c.name, c.pg); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		wantLocal, err := core.LocalDecompose(c.pg, c.theta, core.Options{Mode: core.ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1}
		wantGlob, err := core.GlobalNuclei(c.pg, c.k, c.theta, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantWeak, err := core.WeaklyGlobalNuclei(c.pg, c.k, c.theta, opts)
		if err != nil {
			t.Fatal(err)
		}

		req := core.NucleiRequest{K: c.k, Theta: c.theta, Samples: c.samples, Seed: c.seed}
		for _, label := range []string{"cold", "warm"} {
			builds := m.IndexBuilds()
			local, err := reg.Local(ctx, c.name, core.LocalRequest{Theta: c.theta})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(local.Nucleusness, wantLocal.Nucleusness) {
				t.Errorf("%s/%s: registry local differs from LocalDecompose", c.name, label)
			}
			glob, err := reg.Global(ctx, c.name, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(glob, wantGlob) {
				t.Errorf("%s/%s: registry global differs from GlobalNuclei", c.name, label)
			}
			weak, err := reg.Weak(ctx, c.name, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(weak, wantWeak) {
				t.Errorf("%s/%s: registry weak differs from WeaklyGlobalNuclei", c.name, label)
			}
			if got := m.IndexBuilds(); got != builds {
				// Registration is the only enumeration: both the cold pass
				// (cache miss, but prepared artifact) and the warm pass must
				// leave the counter untouched.
				t.Errorf("%s/%s: %d triangle indexes rebuilt during queries, want 0", c.name, label, got-builds)
			}
		}
	}
	s := m.Snapshot()
	if s.CacheHits == 0 {
		t.Error("no cache hits over the warm pass")
	}
	if s.IndexBuilds != int64(len(cases)) {
		t.Errorf("index builds = %d, want exactly one per registered graph (%d)", s.IndexBuilds, len(cases))
	}
}

// TestRegistrySingleflight: a burst of identical queries computes once — one
// cache miss, every other caller served the same result object by the cache
// or by joining the in-flight compute.
func TestRegistrySingleflight(t *testing.T) {
	reg, _, m := newTestRegistry(t)
	ctx := context.Background()
	if _, err := reg.Put(ctx, "fig1", fixtures.Fig1()); err != nil {
		t.Fatal(err)
	}
	base := m.Snapshot()

	const callers = 16
	results := make([]*core.LocalResult, callers)
	errs := make([]error, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			results[i], errs[i] = reg.Local(ctx, "fig1", core.LocalRequest{Theta: 0.35})
		}(i)
	}
	start.Done()
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct result object: the burst computed more than once", i)
		}
	}
	s := m.Snapshot()
	misses := s.CacheMisses - base.CacheMisses
	hits := s.CacheHits - base.CacheHits
	coalesced := s.CacheCoalesced - base.CacheCoalesced
	if misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 for the burst", misses)
	}
	if hits+coalesced != callers-1 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want %d", hits, coalesced, hits+coalesced, callers-1)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	reg, _, m := newTestRegistry(t, WithCacheCapacity(2))
	ctx := context.Background()
	if _, err := reg.Put(ctx, "fig1", fixtures.Fig1()); err != nil {
		t.Fatal(err)
	}
	thetas := []float64{0.2, 0.3, 0.4}
	for _, th := range thetas {
		if _, err := reg.Local(ctx, "fig1", core.LocalRequest{Theta: th}); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	if s.CacheEvictions == 0 {
		t.Error("three results through a capacity-2 LRU evicted nothing")
	}
	if st := reg.Stats(); st.CachedResults > 2 {
		t.Errorf("CachedResults = %d, want ≤ capacity 2", st.CachedResults)
	}
	// θ=0.2 was the coldest entry; re-querying it must miss again.
	base := m.Snapshot().CacheMisses
	if _, err := reg.Local(ctx, "fig1", core.LocalRequest{Theta: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().CacheMisses; got != base+1 {
		t.Errorf("re-query of evicted θ: misses went %d → %d, want a fresh miss", base, got)
	}
}

func TestRegistryCacheDisabled(t *testing.T) {
	reg, _, m := newTestRegistry(t, WithCacheCapacity(0))
	ctx := context.Background()
	if _, err := reg.Put(ctx, "fig1", fixtures.Fig1()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Local(ctx, "fig1", core.LocalRequest{Theta: 0.35}); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	if s.CacheHits != 0 || s.CacheMisses != 2 {
		t.Errorf("disabled cache: hits/misses = %d/%d, want 0/2", s.CacheHits, s.CacheMisses)
	}
}

// TestRegistryReplaceInvalidates: replacing a graph under a name must never
// serve the old graph's cached results to new queries.
func TestRegistryReplaceInvalidates(t *testing.T) {
	reg, _, m := newTestRegistry(t)
	ctx := context.Background()
	if _, err := reg.Put(ctx, "g", fixtures.Fig1()); err != nil {
		t.Fatal(err)
	}
	old, err := reg.Local(ctx, "g", core.LocalRequest{Theta: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put(ctx, "g", fixtures.Fig3cK5()); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().CacheEvictions; got == 0 {
		t.Error("replacing Put evicted nothing although a result was cached")
	}
	fresh, err := reg.Local(ctx, "g", core.LocalRequest{Theta: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("query after replace returned the stale cached result")
	}
	want, err := core.LocalDecompose(fixtures.Fig3cK5(), 0.35, core.Options{Mode: core.ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Nucleusness, want.Nucleusness) {
		t.Error("query after replace does not match the new graph's decomposition")
	}
}

// TestRegistryChurn is the eviction-churn chaos case: Put/Delete cycles
// racing live queries (run under -race by scripts/ci.sh). Queries must only
// ever fail with ErrUnknownGraph — never corrupt state, deadlock, or serve a
// wrong-graph result.
func TestRegistryChurn(t *testing.T) {
	reg, _, _ := newTestRegistry(t, WithCacheCapacity(4))
	ctx := context.Background()
	graphs := []*probgraph.Graph{fixtures.Fig1(), fixtures.Fig2aNucleus(), fixtures.Fig3cK5()}
	wantLocal := make([][]int, len(graphs))
	for i, pg := range graphs {
		res, err := core.LocalDecompose(pg, 0.2, core.Options{Mode: core.ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantLocal[i] = res.Nucleusness
	}
	if _, err := reg.Put(ctx, "churn", graphs[0]); err != nil {
		t.Fatal(err)
	}

	const (
		churners = 2
		queriers = 4
		iters    = 25
	)
	var wg sync.WaitGroup
	errc := make(chan error, churners+queriers)
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%5 == 4 {
					_ = reg.Delete("churn") // racing deletes may lose; both outcomes are legal
					continue
				}
				if _, err := reg.Put(ctx, "churn", graphs[(c+i)%len(graphs)]); err != nil {
					errc <- fmt.Errorf("churner %d: put: %w", c, err)
					return
				}
			}
		}(c)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := reg.Local(ctx, "churn", core.LocalRequest{Theta: 0.2})
				if err != nil {
					if errors.Is(err, ErrUnknownGraph) {
						continue // raced a Delete; legal
					}
					errc <- fmt.Errorf("querier %d: %w", q, err)
					return
				}
				ok := false
				for _, want := range wantLocal {
					if reflect.DeepEqual(res.Nucleusness, want) {
						ok = true
						break
					}
				}
				if !ok {
					errc <- fmt.Errorf("querier %d: result matches none of the registered graphs", q)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
