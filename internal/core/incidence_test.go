package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/graph"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// TestCliqueFactorsMatchProb: the adjacency-cursor factors must equal the
// pg.TriangleProb and pg.Prob products bit for bit, for every triangle of
// the named datasets at small scales and of dense random graphs.
func TestCliqueFactorsMatchProb(t *testing.T) {
	pgs := map[string]*probgraph.Graph{}
	for _, name := range []string{"krogan", "dblp", "flickr"} {
		pgs[name] = dataset.Generate(dataset.MustLoad(name, dataset.Scale(0.03)))
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 3; i++ {
		pgs[fmt.Sprintf("dense%d", i)] = randomProbGraph(rng, 14, 0.9)
	}
	for name, pg := range pgs {
		ti := graph.NewTriangleIndex(pg.G, par.NewPool(1))
		var ps []float64
		for tr, tri := range ti.Tris {
			var pTri float64
			pTri, ps = cliqueFactors(pg, tri, ti.Comps[tr], ps[:0])
			if want := pg.TriangleProb(tri); math.Float64bits(pTri) != math.Float64bits(want) {
				t.Fatalf("%s: triangle %v: Pr(△) %v, want %v", name, tri, pTri, want)
			}
			for i, z := range ti.Comps[tr] {
				want := pg.Prob(tri.A, z) * pg.Prob(tri.B, z) * pg.Prob(tri.C, z)
				if math.Float64bits(ps[i]) != math.Float64bits(want) {
					t.Fatalf("%s: triangle %v completion %d: factor %v, want %v", name, tri, z, ps[i], want)
				}
			}
		}
	}
}

// TestLocalAllocsWorkerIndependent: a local peel's allocations do not grow
// with the worker count. The parallel re-scoring rounds share one hoisted
// closure, so Workers:2 allocates within a small constant of Workers:1
// instead of once more per parallel round.
func TestLocalAllocsWorkerIndependent(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("flickr", dataset.Scale(0.01)))
	ctx := context.Background()
	for _, theta := range []float64{0.1, 0.4} {
		var allocs [2]float64
		for i, workers := range []int{1, 2} {
			eng := NewEngine(1, workers)
			pre, err := eng.Prepare(ctx, pg)
			if err != nil {
				t.Fatal(err)
			}
			req := LocalRequest{Theta: theta}
			if _, err := eng.LocalPrepared(ctx, pre, req); err != nil { // derives the incidence
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(2, func() {
				if _, err := eng.LocalPrepared(ctx, pre, req); err != nil {
					t.Fatal(err)
				}
			})
			eng.Close()
		}
		if allocs[1] > allocs[0]+16 {
			t.Errorf("θ=%v: Workers:2 allocates %v per peel, Workers:1 %v; want within 16", theta, allocs[1], allocs[0])
		}
	}
}

// countIncidenceBuilds wraps newIncidence for the duration of a test,
// counting builds; fail, when set, runs first inside every build.
func countIncidenceBuilds(t *testing.T, fail func()) *atomic.Int32 {
	t.Helper()
	var builds atomic.Int32
	orig := newIncidence
	newIncidence = func(ti *graph.TriangleIndex, g *graph.Graph) *decomp.TriIncidence {
		builds.Add(1)
		if fail != nil {
			fail()
		}
		return orig(ti, g)
	}
	t.Cleanup(func() { newIncidence = orig })
	return &builds
}

// TestPreparedIncidenceBuiltOnce: a Prepared derives its incidence on the
// first peel and every later peel — local, or the pruning peel of global
// and weak — reuses it.
func TestPreparedIncidenceBuiltOnce(t *testing.T) {
	builds := countIncidenceBuilds(t, nil)
	eng := NewEngine(1, 2)
	defer eng.Close()
	ctx := context.Background()
	pre, err := eng.Prepare(ctx, fixtures.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 0 {
		t.Fatalf("Prepare built the incidence %d times, want 0 (it is derived lazily)", got)
	}
	for _, theta := range []float64{0.35, 0.2} {
		if _, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: theta}); err != nil {
			t.Fatal(err)
		}
	}
	req := NucleiRequest{K: 1, Theta: 0.35, Samples: 50, Seed: 5}
	if _, err := eng.GlobalPrepared(ctx, pre, req); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WeakPrepared(ctx, pre, req); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("four peels on one Prepared built the incidence %d times, want 1", got)
	}
}

// TestPreparedConcurrentFirstPeel: shards peeling one fresh Prepared at the
// same time race to derive its incidence. Under -race this pins the
// build-then-CompareAndSwap publication; every result must match the
// package-level reference, and all peels end up sharing one incidence.
func TestPreparedConcurrentFirstPeel(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))
	const theta = 0.2
	want, err := LocalDecompose(pg, theta, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(2, 1)
	defer eng.Close()
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		pre, err := eng.Prepare(ctx, pg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 2)
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: theta})
				if err == nil && !reflect.DeepEqual(res.Nucleusness, want.Nucleusness) {
					err = errors.New("nucleusness differs from LocalDecompose")
				}
				errc <- err
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if inc := pre.inc.Load(); inc == nil || inc != pre.incidence() {
			t.Fatalf("round %d: concurrent first peels left no single published incidence", round)
		}
	}
}

// TestPreparedIncidencePanicLeavesUsable: a panic during the first
// incidence build surfaces as ErrInternal and publishes nothing; the next
// peel on the same Prepared builds the incidence again and answers
// correctly.
func TestPreparedIncidencePanicLeavesUsable(t *testing.T) {
	pg := fixtures.Fig1()
	const theta = 0.35
	want, err := LocalDecompose(pg, theta, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	armed.Store(true)
	builds := countIncidenceBuilds(t, func() {
		if armed.CompareAndSwap(true, false) {
			panic("injected incidence build fault")
		}
	})
	eng := NewEngine(1, 2)
	defer eng.Close()
	ctx := context.Background()
	pre, err := eng.Prepare(ctx, pg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: theta}); !errors.Is(err, ErrInternal) {
		t.Fatalf("peel with a panicking incidence build returned %v, want ErrInternal", err)
	}
	if pre.inc.Load() != nil {
		t.Fatal("a panicking build published an incidence")
	}
	waitHealthy(t, eng)
	res, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: theta})
	if err != nil {
		t.Fatalf("peel after the failed build: %v", err)
	}
	if !reflect.DeepEqual(res.Nucleusness, want.Nucleusness) {
		t.Fatal("peel after the failed build differs from LocalDecompose")
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("%d incidence builds, want 2 (the failed one and its retry)", got)
	}
}

// TestAssembledLocalResultIncidence: a LocalResult assembled by hand rather
// than by a peel derives its incidence on first use. Concurrent first
// callers race to build it and must all end up on one published incidence,
// and its nuclei and weak results must equal the peeled result's.
func TestAssembledLocalResultIncidence(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))
	peeled, err := LocalDecompose(pg, 0.2, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantNuclei := peeled.NucleiForK(1)
	opts := MCOptions{Samples: 40, Seed: 3, Workers: 1}
	opts.Local = peeled
	wantWeak, err := WeaklyGlobalNuclei(pg, 1, 0.2, opts)
	if err != nil {
		t.Fatal(err)
	}
	builds := countIncidenceBuilds(t, nil)
	for round := 0; round < 4; round++ {
		res := &LocalResult{PG: peeled.PG, TI: peeled.TI, Theta: peeled.Theta, Nucleusness: peeled.Nucleusness}
		var wg sync.WaitGroup
		errc := make(chan error, 2)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !reflect.DeepEqual(res.NucleiForK(1), wantNuclei) {
					errc <- errors.New("nuclei differ from the peeled result's")
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("round %d: %v", round, err)
		}
		if p := res.pre.Load(); p == nil || p.inc.Load() == nil || res.incidence() != p.inc.Load() {
			t.Fatalf("round %d: concurrent first calls left no single published incidence", round)
		}
		opts.Local = res
		weak, err := WeaklyGlobalNuclei(pg, 1, 0.2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(weak, wantWeak) {
			t.Fatalf("round %d: weak nuclei differ from the peeled result's", round)
		}
	}
	if got := builds.Load(); got < 4 {
		t.Fatalf("%d incidence builds over 4 assembled results, want at least one each", got)
	}
}
