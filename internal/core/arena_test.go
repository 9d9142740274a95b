package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// arenaFixture builds a candidate space with warmed closure scratch over the
// krogan dataset, the setup shared by the steady-state allocation tests
// below.
func arenaFixture(t testing.TB) *candidateSpace {
	cs := newCandidateSpace(sharedKroganLocal(t), 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	for _, seed := range cs.triangles { // warm every scratch buffer
		cs.closure(seed, 1)
	}
	return cs
}

// TestClosureGrowthAllocationFree: growing candidates (Algorithm 2 lines
// 5-7) must not allocate once the per-space scratch has reached steady
// state — the arena discipline of the peeling loop, extended to the global
// pipeline.
func TestClosureGrowthAllocationFree(t *testing.T) {
	cs := arenaFixture(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		cs.closure(cs.triangles[i%len(cs.triangles)], 1)
		i++
	})
	if allocs != 0 {
		t.Errorf("closure growth allocates %v per seed, want 0", allocs)
	}
}

// TestTriSetDedupLookupAllocationFree: re-checking an already-stored
// triangle set (the common case — most seeds grow an already-seen closure)
// must not allocate.
func TestTriSetDedupLookupAllocationFree(t *testing.T) {
	cs := arenaFixture(t)
	var seen triSetDedup
	for _, seed := range cs.triangles {
		seen.insert(cs.closure(seed, 1))
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		seed := cs.triangles[i%len(cs.triangles)]
		if seen.insert(cs.closure(seed, 1)) {
			t.Fatal("set unexpectedly new")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("dedup lookup allocates %v per seed, want 0", allocs)
	}
}

// TestTriSetDedupSemantics: the hash-with-equality-fallback dedup must agree
// with literal set comparison — same first-insert wins, duplicates rejected,
// near-miss sets (prefix, superset, single-element change) kept.
func TestTriSetDedupSemantics(t *testing.T) {
	var d triSetDedup
	sets := [][]int32{
		{1, 2, 3},
		{1, 2},
		{1, 2, 3, 4},
		{1, 2, 4},
		{},
	}
	for i, s := range sets {
		if !d.insert(s) {
			t.Fatalf("set %d %v rejected on first insert", i, s)
		}
	}
	for i, s := range sets {
		dup := append([]int32(nil), s...)
		if d.insert(dup) {
			t.Fatalf("set %d %v accepted twice", i, dup)
		}
	}
}

// globalArenaFixture builds the estimator of a krogan candidate space over a
// 16-world shared bank at θ = 0.001 (so the θ-prune never short-cuts the
// scan), the setup shared by the global-kernel allocation tests below.
func globalArenaFixture(t *testing.T, pool *par.Pool) (*candidateSpace, *globalEstimator) {
	local := sharedKroganLocal(t)
	pg := local.PG
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	masks, words := new(mc.Bank).WorldMasksWindow(pool, pg.SubgraphOfEdges(union), 16, 0, 16, 1)
	est := newGlobalEstimator(pool, cs, union, decomp.LaneIndex(nil, cs.g, union), 16, 0.001)
	if est.words != words {
		t.Fatalf("estimator words %d != bank words %d", est.words, words)
	}
	est.setWindow(masks, 16)
	return cs, est
}

// validateOneWindow is the g-NuDecomp kernel's step for one candidate of a
// one-window run: apply the θ-prune to the closure, seed the candidate from
// the union tables, apply it to the seed's extra triangles, scan the window
// into the reused totals, and take the verdict.
func validateOneWindow(est *globalEstimator, closure []int32, k int, tot *[]int32) (float64, bool) {
	if est.closurePruned(closure, 0) {
		return 0, false
	}
	m := est.seedCandidate(closure, k)
	if est.extrasPruned(0) {
		return 0, false
	}
	*tot = resizeCleared(*tot, m)
	est.scanInto(*tot)
	return est.tailVerdict(*tot)
}

// TestSharedWorldGlobalValidationAllocationFree: one whole kernel step per
// candidate — closure growth, seeding the candidate from the union tables,
// the lane scan of the window's 64-world blocks, count accumulation, and
// the verdict — must not allocate once the estimator's scratch has reached
// steady state. This is the allocation contract of the shared-world engine:
// the only per-call allocations are the union tables and the union worlds,
// built once.
func TestSharedWorldGlobalValidationAllocationFree(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cs, est := globalArenaFixture(t, pool)
	var tot []int32
	for _, seed := range cs.triangles { // warm every scratch buffer
		validateOneWindow(est, cs.closure(seed, 1), 1, &tot)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		validateOneWindow(est, cs.closure(cs.triangles[i%len(cs.triangles)], 1), 1, &tot)
		i++
	})
	if allocs != 0 {
		t.Errorf("closure + seed + scan allocates %v per candidate, want 0", allocs)
	}
}

// TestWindowStreamingScanAllocationFree: streaming one more window past an
// already-known candidate — the window rebind (its lane transpose and the
// θ-prune's alive counts included), candidate reseed, lane scan, and totals
// merge — must not allocate at steady state. This is the allocation
// contract of the windowed bank path: peak memory is the window, and
// cycling windows costs no churn.
func TestWindowStreamingScanAllocationFree(t *testing.T) {
	local := sharedKroganLocal(t)
	pg := local.PG
	cs := newCandidateSpace(local, 1)
	if len(cs.triangles) < 4 {
		t.Fatalf("fixture too small: %d candidate triangles", len(cs.triangles))
	}
	pool := par.NewPool(1)
	defer pool.Close()
	union := appendTriangleEdges(nil, cs.ti, cs.triangles)
	upg := pg.SubgraphOfEdges(union)
	var bank mc.Bank
	const n, win = 64, 16
	est := newGlobalEstimator(pool, cs, union, decomp.LaneIndex(nil, cs.g, union), n, 0.001)
	closure := slices.Clone(cs.closure(cs.triangles[0], 1))
	var totals []int32
	for lo := 0; lo < n; lo += win { // warm every scratch buffer
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, lo+win, 1)
		est.setWindow(masks, win)
		m := est.seedCandidate(closure, 1)
		totals = resizeCleared(totals, m)
		est.scanInto(totals)
	}
	lo := 0
	allocs := testing.AllocsPerRun(100, func() {
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, lo+win, 1)
		est.setWindow(masks, win)
		est.seedCandidate(closure, 1)
		est.scanInto(totals)
		lo = (lo + win) % n
	})
	if allocs != 0 {
		t.Errorf("window streaming allocates %v per window, want 0", allocs)
	}
}

// TestAlivenessRebindAllocationFree: rebinding the seed across candidates of
// different shapes — cutting each from the union tables — plus the
// alive-count reads of the θ-prune must not allocate once the seed's scratch
// has grown to the largest candidate.
func TestAlivenessRebindAllocationFree(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	cs, est := globalArenaFixture(t, pool)
	closures := candidateClosures(cs, 1)
	for _, closure := range closures { // warm every scratch buffer
		est.seedCandidate(closure, 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		closure := closures[i%len(closures)]
		est.closurePruned(closure, 0)
		est.seedCandidate(closure, 1)
		est.extrasPruned(0)
		i++
	})
	if allocs != 0 {
		t.Errorf("aliveness rebind allocates %v per candidate, want 0", allocs)
	}
}

// TestSharedWorldWeakScoringAllocationFree: the weak-path steady state —
// cutting the peel seed for the next candidate from the root incidence
// (view, clique layout, k-core fixpoint, lanes), reading each 64-world
// block's lane columns and scoring the block with the word-parallel kernel
// — must not allocate either, across candidates of different sizes. The
// window's transposition is per window, not per candidate, and is gated
// separately (mc's TestLanesTransposeReuseAllocationFree).
func TestSharedWorldWeakScoringAllocationFree(t *testing.T) {
	local := sharedKroganLocal(t)
	pg := local.PG
	cands := local.NucleiForK(1)
	if len(cands) < 2 {
		t.Fatalf("fixture too small: %d candidates", len(cands))
	}
	pool := par.NewPool(1)
	defer pool.Close()
	union := unionEdges(cands)
	const n = 100 // two blocks, the second partial
	masks, words := new(mc.Bank).WorldMasksWindow(pool, pg.SubgraphOfEdges(union), n, 0, n, 1)
	var lanes mc.Lanes
	lanes.Transpose(masks, n, words)
	inc := local.incidence()
	laneOf := decomp.LaneIndex(nil, pg.G, union)
	var seed decomp.WorldPeelSeed
	var scorer decomp.WorldMembershipScorer
	var losses []int32
	scoreCand := func(i int) {
		seed.Seed(local.TI, inc, cands[i].TriIDs, laneOf, 1)
		losses = resizeCleared(losses, seed.Len())
		scoreLanesSerial(&scorer, &seed, &lanes, losses)
	}
	for i := range cands { // warm every scratch buffer
		scoreCand(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		scoreCand(i % len(cands))
		i++
	})
	if allocs != 0 {
		t.Errorf("shared-world weak scoring allocates %v per candidate, want 0", allocs)
	}
}

// scoreLanesSerial adds the seed's per-triangle losses over every block of
// a transposed window to loss, on the calling goroutine: the w-NuDecomp
// kernel's block loop without the worker pool.
func scoreLanesSerial(ws *decomp.WorldMembershipScorer, seed *decomp.WorldPeelSeed, lanes *mc.Lanes, loss []int32) {
	for b := 0; b < lanes.Blocks(); b++ {
		ws.ScoreLanes(seed, lanes.Block(b), lanes.Valid(b), loss)
	}
}

// BenchmarkClosure measures the per-seed candidate growth of GlobalNuclei in
// isolation: clique closure over the stamped scratch. ReportAllocs is the
// regression gate — the steady state is allocation-free (see
// TestClosureGrowthAllocationFree).
func BenchmarkClosure(b *testing.B) {
	cs := arenaFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.closure(cs.triangles[i%len(cs.triangles)], 1)
	}
}

// TestLocalScratchReuse: a shard's local-peel scratch carries nothing from
// one peel into the next. One shard first peels every query back to back,
// graphs of different sizes and DP and AP interleaved. Then two clients
// share two engine shards and peel graphs of different sizes, each query
// twice in a row, at thresholds and modes that change from one query to
// the next, so each shard's scratch grows, is reused by the same peel, by
// smaller graphs and by other thresholds, and is dropped by the Prepare and
// Weak requests in between; every answer must equal a fresh one-shot
// serial run.
func TestLocalScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pgs := []*probgraph.Graph{
		dataset.Generate(dataset.MustLoad("flickr", dataset.Scale(0.02))),
		dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.05))),
		randomProbGraph(rng, 14, 0.9),
	}
	type query struct {
		g     int
		theta float64
		mode  Mode
	}
	var queries []query
	for _, g := range []int{0, 1, 0, 2, 1, 2} {
		for _, mode := range []Mode{ModeDP, ModeAP} {
			queries = append(queries, query{g, []float64{0.1, 0.3, 0.05}[len(queries)%3], mode})
		}
	}
	want := make([][]int, len(queries))
	for i, q := range queries {
		res, err := LocalDecompose(pgs[q.g], q.theta, Options{Mode: q.mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Nucleusness
	}
	ctx := context.Background()
	// One shard first, with nothing in between that drops its scratch: the
	// batch stamps, round counter, pair buffers and grouped slots one peel
	// leaves behind — on a larger or smaller graph, in the other mode — are
	// what the next peel starts from.
	solo := NewEngine(1, 2)
	defer solo.Close()
	pres := make([]*Prepared, len(pgs))
	for g, pg := range pgs {
		pres[g] = mustPrepare(t, solo, pg)
	}
	for r := 0; r < 2; r++ {
		for i := range queries {
			j := (i*5 + r) % len(queries) // mixes graphs and modes
			q := queries[j]
			res, err := solo.LocalPrepared(ctx, pres[q.g], LocalRequest{Theta: q.theta, Mode: q.mode})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Nucleusness, want[j]) {
				t.Errorf("one shard: graph %d, θ=%v, mode %v, round %d: nucleusness differs from a fresh run", q.g, q.theta, q.mode, r)
			}
		}
	}
	eng := NewEngine(2, 2)
	defer eng.Close()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				for j := range queries {
					i := (j + c*len(queries)/2) % len(queries)
					q := queries[i]
					// Twice: a repeat retraces the peel it follows, the case
					// where stale per-round state would collide.
					for rep := 0; rep < 2; rep++ {
						res, err := eng.LocalPrepared(ctx, pres[q.g], LocalRequest{Theta: q.theta, Mode: q.mode})
						if err != nil {
							t.Error(err)
							return
						}
						if !slices.Equal(res.Nucleusness, want[i]) {
							t.Errorf("graph %d, θ=%v, mode %v, client %d round %d: nucleusness differs from a fresh run", q.g, q.theta, q.mode, c, r)
						}
					}
					if j%5 == 4 {
						if _, err := eng.Prepare(ctx, pgs[2]); err != nil {
							t.Error(err)
							return
						}
					}
					if j%7 == 6 {
						if _, err := eng.WeakPrepared(ctx, pres[2], NucleiRequest{K: 1, Theta: 0.2, Samples: 20}); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestLocalWarmPeelAllocatesLittle: a local request on a shard whose last
// request was a local peel reuses that peel's scratch — the clique
// adjacency, distributions and their arenas — and allocates a small part of
// what a peel on a fresh shard allocates.
func TestLocalWarmPeelAllocatesLittle(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("flickr", dataset.Scale(0.02)))
	ctx := context.Background()
	eng := NewEngine(1, 2)
	defer eng.Close()
	pre, err := eng.Prepare(ctx, pg)
	if err != nil {
		t.Fatal(err)
	}
	req := LocalRequest{Theta: 0.1}
	bytes := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := eng.LocalPrepared(ctx, pre, req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	bytes() // derives the incidence
	// Prepare releases the shard's scratch, so the next peel starts fresh.
	if _, err := eng.Prepare(ctx, pg); err != nil {
		t.Fatal(err)
	}
	first := bytes()
	warm := bytes()
	if warm*4 > first {
		t.Errorf("a warm peel allocates %s, a peel on a shard without scratch %s; want under a quarter", mb(warm), mb(first))
	}
}

// TestShardDropsLocalScratch: a shard keeps its local-peel scratch only
// until it serves a request that is not a local peel.
func TestShardDropsLocalScratch(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.05)))
	ctx := context.Background()
	eng := NewEngine(1, 1)
	defer eng.Close()
	held := func() bool {
		s := <-eng.free
		defer func() { eng.free <- s }()
		return cap(s.local.psFlat) > 0
	}
	// dropped reports that none of the scratch survives, the batch
	// removal's stamps, pair buffers and grouped slots included.
	dropped := func() bool {
		s := <-eng.free
		defer func() { eng.free <- s }()
		return reflect.ValueOf(&s.local).Elem().IsZero()
	}
	pre, err := eng.Prepare(ctx, pg)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct {
		name string
		run  func() error
	}{
		{"Prepare", func() error { _, err := eng.Prepare(ctx, pg); return err }},
		{"Global", func() error {
			_, err := eng.GlobalPrepared(ctx, pre, NucleiRequest{K: 1, Theta: 0.2, Samples: 20})
			return err
		}},
		{"Weak", func() error {
			_, err := eng.WeakPrepared(ctx, pre, NucleiRequest{K: 1, Theta: 0.2, Samples: 20})
			return err
		}},
	} {
		if _, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.1}); err != nil {
			t.Fatal(err)
		}
		if !held() {
			t.Fatal("a local peel left no scratch on its shard")
		}
		if err := other.run(); err != nil {
			t.Fatal(err)
		}
		if held() || !dropped() {
			t.Errorf("the shard still holds local scratch after a %s request", other.name)
		}
	}
}

// TestShardReusesWeakScratch: a shard keeps its weak working memory from one
// weak request to the next — the second request re-grows none of it, so
// the seed's root-indexed stamps and the lane table keep their backing
// arrays — across a global request in between, and a local peel or a
// prepare drops it.
func TestShardReusesWeakScratch(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.05)))
	ctx := context.Background()
	eng := NewEngine(1, 2)
	defer eng.Close()
	held := func() *int32 {
		s := <-eng.free
		defer func() { eng.free <- s }()
		if len(s.weak.laneOf) == 0 || len(s.weak.losses) == 0 {
			return nil
		}
		return &s.weak.laneOf[0]
	}
	pre, err := eng.Prepare(ctx, pg)
	if err != nil {
		t.Fatal(err)
	}
	req := NucleiRequest{K: 1, Theta: 0.2, Samples: 70}
	weak := func() {
		t.Helper()
		if _, err := eng.WeakPrepared(ctx, pre, req); err != nil {
			t.Fatal(err)
		}
	}
	weak()
	first := held()
	if first == nil {
		t.Fatal("a weak request left no scratch on its shard")
	}
	if _, err := eng.GlobalPrepared(ctx, pre, req); err != nil {
		t.Fatal(err)
	}
	weak()
	if got := held(); got != first {
		t.Error("a warm shard re-grew its weak scratch instead of reusing it")
	}
	for _, other := range []struct {
		name string
		run  func() error
	}{
		{"Local", func() error { _, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.1}); return err }},
		{"Prepare", func() error { _, err := eng.Prepare(ctx, pg); return err }},
	} {
		weak()
		if err := other.run(); err != nil {
			t.Fatal(err)
		}
		if held() != nil {
			t.Errorf("the shard still holds weak scratch after a %s request", other.name)
		}
	}
}

func mb(b uint64) string { return fmt.Sprintf("%.2f MB", float64(b)/1e6) }
