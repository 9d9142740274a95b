package core

import (
	"context"
	"fmt"
	"math"
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
	est := planEstimator(t, pool, local, 1, 16, 0.001)
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
	m := est.seedCandidate(0, closure, k)
	if est.extrasPruned(0, 0) {
		return 0, false
	}
	*tot = resizeCleared(*tot, m)
	est.scanInto(0, *tot)
	return est.tailVerdict(*tot)
}

// TestSharedWorldGlobalValidationAllocationFree: one whole kernel step per
// candidate — closure growth, seeding the candidate from the union tables,
// the lane scan of the window's 64-world blocks, count accumulation, and
// the verdict — must not allocate once the estimator's scratch has reached
// steady state. This is the allocation contract of the shared-world engine:
// the union tables are built once per candidate plan, and the estimator,
// with its per-worker seeds and checkers, is kept on the engine shard from
// one call to the next.
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

// leastAllocated runs setup and then op, r times over, reading the
// process's heap counters around each run of op, and returns the fewest
// allocations and the fewest bytes any one run was charged. The counters
// are process-wide, so an allocation a runtime goroutine makes while op
// runs — the background scavenger arming its timer, say — is charged to
// op. Such allocations come now and then; op's own come on every run, so
// the minimum keeps every one of op's and sheds the others. setup must put
// the state op is measured from back in place each time.
func leastAllocated(r int, setup, op func()) (allocs, bytes uint64) {
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < r; i++ {
		setup()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestGlobalReservedScratchAllocationFree: the end of a call evens every
// worker's seed, checker and totals out to the largest candidate any worker
// has seeded, so on the next call a worker that scored none of the plan's
// candidates prunes, seeds, scans and judges every one of them without
// growing anything: what a warm shard allocates does not depend on which
// worker scores which candidate. Worker 0 scores every candidate in the
// first call; worker 1 takes them all in the second. The count is read
// around the second call's loop by leastAllocated, which rebuilds the
// estimator before each run, not by testing.AllocsPerRun, whose warm-up
// run would grow the scratch before it counts.
func TestGlobalReservedScratchAllocationFree(t *testing.T) {
	local := sharedKroganLocal(t)
	plan, err := local.globalPlan(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	const n, theta = 64, 0.001
	masks, _ := new(mc.Bank).WorldMasksWindow(pool, plan.upg, n, 0, n, 1)
	var est *globalEstimator
	// startCall binds est to the plan and the one window, as a call does.
	startCall := func() {
		est.bind(pool, plan, n, theta)
		est.startRun(&plan.cands, 1, false)
		est.setWindow(masks, n)
		est.lo, est.hi = 0, n
	}
	scoreAll := func(worker int) {
		for i := range est.live {
			est.scoreCandidate(worker, i)
		}
	}
	setup := func() {
		est = new(globalEstimator)
		startCall()
		scoreAll(0)
		est.release()
		startCall()
	}
	allocs, _ := leastAllocated(5, setup, func() { scoreAll(1) })
	if allocs != 0 {
		t.Errorf("worker 1 scoring the plan's %d candidates after worker 0 did allocates %d times, want 0",
			plan.cands.len(), allocs)
	}
}

// TestGlobalWindowRoundAllocationFree: a whole g-NuDecomp run past a
// published plan's candidates — binding the estimator, and per window the
// bank draw, the window rebind and the one round of scoreWindow (every live
// candidate pruned, seeded, scanned and judged into its own slot) with the
// compaction of the live list — must not allocate once the estimator's
// scratch has reached steady state: in one window, and in windows of 16
// worlds, whose first lays the persistent totals out in the worker's arena.
// The pool has one worker, so which worker scores which candidate, and
// with it how far each worker's scratch has grown, is fixed.
func TestGlobalWindowRoundAllocationFree(t *testing.T) {
	local := sharedKroganLocal(t)
	plan, err := local.globalPlan(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(1)
	defer pool.Close()
	const n = 64
	var bank mc.Bank
	est := new(globalEstimator)
	run := func(window int) {
		est.bind(pool, plan, n, 0.001)
		est.startRun(&plan.cands, 1, window < n)
		for lo := 0; lo < n; lo += window {
			masks, _ := bank.WorldMasksWindow(pool, plan.upg, n, lo, lo+window, 1)
			est.setWindow(masks, window)
			est.scoreWindow(lo, lo+window)
		}
	}
	for _, window := range []int{n, 16} {
		run(window) // warm every scratch buffer
		if len(est.live) == 0 {
			t.Fatalf("window %d: no candidate accepted; the round scans nothing on its last window", window)
		}
		if allocs := testing.AllocsPerRun(2, func() { run(window) }); allocs != 0 {
			t.Errorf("window %d: a run of window rounds allocates %v, want 0", window, allocs)
		}
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
	est := planEstimator(t, pool, local, 1, n, 0.001)
	closure := slices.Clone(cs.closure(cs.triangles[0], 1))
	var totals []int32
	for lo := 0; lo < n; lo += win { // warm every scratch buffer
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, lo+win, 1)
		est.setWindow(masks, win)
		m := est.seedCandidate(0, closure, 1)
		totals = resizeCleared(totals, m)
		est.scanInto(0, totals)
	}
	lo := 0
	allocs := testing.AllocsPerRun(100, func() {
		masks, _ := bank.WorldMasksWindow(pool, upg, n, lo, lo+win, 1)
		est.setWindow(masks, win)
		est.seedCandidate(0, closure, 1)
		est.scanInto(0, totals)
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
		est.seedCandidate(0, closure, 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		closure := closures[i%len(closures)]
		est.closurePruned(closure, 0)
		est.seedCandidate(0, closure, 1)
		est.extrasPruned(0, 0)
		i++
	})
	if allocs != 0 {
		t.Errorf("aliveness rebind allocates %v per candidate, want 0", allocs)
	}
}

// TestSharedWorldWeakScoringAllocationFree: the weak-path steady state —
// reading each 64-world block's lane columns and scoring the block against
// the next candidate's published peel seed with the word-parallel kernel —
// must not allocate, across candidates of different sizes. The seeds are
// cut once, when the plan is built; the window's transposition is per
// window, not per candidate, and is gated separately (mc's
// TestLanesTransposeReuseAllocationFree).
func TestSharedWorldWeakScoringAllocationFree(t *testing.T) {
	local := sharedKroganLocal(t)
	plan, err := local.weakPlan(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.seeds) < 2 {
		t.Fatalf("fixture too small: %d candidates", len(plan.seeds))
	}
	pool := par.NewPool(1)
	defer pool.Close()
	const n = 100 // two blocks, the second partial
	masks, words := new(mc.Bank).WorldMasksWindow(pool, plan.upg, n, 0, n, 1)
	var lanes mc.Lanes
	lanes.Transpose(masks, n, words)
	var scorer decomp.WorldMembershipScorer
	var losses []int32
	scoreCand := func(i int) {
		losses = resizeCleared(losses, plan.seeds[i].Len())
		scoreLanesSerial(&scorer, &plan.seeds[i], &lanes, losses)
	}
	for i := range plan.seeds { // warm every scratch buffer
		scoreCand(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		scoreCand(i % len(plan.seeds))
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
	peel := func() {
		if _, err := eng.LocalPrepared(ctx, pre, req); err != nil {
			t.Fatal(err)
		}
	}
	peel() // derives the incidence
	// Prepare releases the shard's scratch, so the peel after it starts
	// fresh; a peel after a peel starts warm.
	prepare := func() {
		if _, err := eng.Prepare(ctx, pg); err != nil {
			t.Fatal(err)
		}
	}
	_, first := leastAllocated(3, prepare, peel)
	_, warm := leastAllocated(3, peel, peel)
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
// every worker's scorer and the candidates' loss arena keep their backing
// arrays — across a global request in between, holds no plan between
// requests, and a local peel or a prepare drops it.
func TestShardReusesWeakScratch(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.05)))
	ctx := context.Background()
	eng := NewEngine(1, 2)
	defer eng.Close()
	// arenas returns the first element of the loss arena and of every
	// worker's scorer scratch, or nil when the shard holds none.
	arenas := func() []any {
		s := <-eng.free
		defer func() { eng.free <- s }()
		if s.weak.plan != nil || s.weak.ti != nil {
			t.Error("the shard holds a w-NuDecomp plan between requests")
		}
		if len(s.weak.lost) == 0 || len(s.weak.workers) == 0 {
			return nil
		}
		held := []any{&s.weak.lost[0]}
		for w := range s.weak.workers {
			held = append(held, scorerArena(&s.weak.workers[w].scorer))
		}
		return held
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
	first := arenas()
	if first == nil || slices.Contains(first, nil) {
		t.Fatalf("a weak request left its shard scratch %v, want the loss arena and every worker's scorer", first)
	}
	if _, err := eng.GlobalPrepared(ctx, pre, req); err != nil {
		t.Fatal(err)
	}
	weak()
	if got := arenas(); !reflect.DeepEqual(got, first) {
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
		if arenas() != nil {
			t.Errorf("the shard still holds weak scratch after a %s request", other.name)
		}
	}
}

// scorerArena returns the backing array of a scorer's per-triangle lane
// words, or nil before it has scored a candidate.
func scorerArena(ws *decomp.WorldMembershipScorer) any {
	alive := reflect.ValueOf(ws).Elem().FieldByName("alive")
	if alive.Cap() == 0 {
		return nil
	}
	return alive.Pointer()
}

func mb(b uint64) string { return fmt.Sprintf("%.2f MB", float64(b)/1e6) }
