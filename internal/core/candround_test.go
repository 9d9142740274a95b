package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/mc"
	"probnucleus/internal/obs"
	"probnucleus/internal/par"
)

// The served global-dblp shape: g-NuDecomp on dblp at scale 0.04, k = 1,
// θ = 0.57, 100 sampled worlds, and the eight Monte-Carlo seeds the
// benchmark workload cycles at input seed 0. At this θ the prune drops most
// candidates before they are scanned.
const (
	dblpK       = 1
	dblpTheta   = 0.57
	dblpSamples = 100
)

var dblpSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// dblpLocal is the exact DP local decomposition the served global-dblp
// requests prune with, built once per test binary and read-only.
var dblpLocal = sync.OnceValues(func() (*LocalResult, error) {
	pg := dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.04)))
	return LocalDecompose(pg, dblpTheta, Options{Mode: ModeDP, Workers: 1})
})

func sharedDblpLocal(tb testing.TB) *LocalResult {
	tb.Helper()
	local, err := dblpLocal()
	if err != nil {
		tb.Fatal(err)
	}
	return local
}

// roundObserver counts the engine's worker-pool rounds. When ctx is set it
// also records, at the end of every round, how many times ctx's Err has
// been called, and at ctx's cancellation how many rounds had ended.
type roundObserver struct {
	obs.NopObserver
	rounds atomic.Int64
	ctx    *flipCtx
	ends   []int64 // written by the round's caller goroutine only
}

func (o *roundObserver) PoolRound(int, time.Duration) {
	o.rounds.Add(1)
	if o.ctx != nil {
		o.ends = append(o.ends, o.ctx.calls.Load())
	}
}

// flipCtx is a live context whose Err turns to context.Canceled from its
// (after+1)-th call on. Every pool worker checks Err between chunk claims
// and the g-NuDecomp round body checks it at every candidate, so the call
// count fixes the point of cancellation inside a round.
type flipCtx struct {
	context.Context
	after  int64
	calls  atomic.Int64
	obs    *roundObserver
	flipAt atomic.Int64 // rounds ended when Err first failed, plus one
}

func newFlipCtx(after int64, o *roundObserver) *flipCtx {
	return &flipCtx{Context: context.Background(), after: after, obs: o}
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) <= c.after {
		return nil
	}
	c.flipAt.CompareAndSwap(0, c.obs.rounds.Load()+1)
	return context.Canceled
}

// dblpRequest is one served global-dblp request at the given seed and
// window, pruned by local.
func dblpRequest(local *LocalResult, seed int64, window int) NucleiRequest {
	return NucleiRequest{K: dblpK, Theta: dblpTheta, Samples: dblpSamples, Seed: seed, Window: window, Local: local}
}

// referenceGlobal is the serial per-candidate g-NuDecomp loop over the full
// bank: every candidate in enumeration order is pruned on its closure,
// seeded, pruned on its extras, scanned and judged on its own, with worker
// 0's scratch. It also returns how many candidates the θ-prune dropped.
func referenceGlobal(tb testing.TB, pool *par.Pool, local *LocalResult, k int, theta float64, n int, seed int64) ([]ProbNucleus, int, int) {
	tb.Helper()
	plan, err := local.globalPlan(k, nil)
	if err != nil {
		tb.Fatal(err)
	}
	est := planEstimator(tb, pool, local, k, n, theta)
	masks, _ := new(mc.Bank).WorldMasksWindow(pool, plan.upg, n, 0, n, seed)
	est.setWindow(masks, n)
	var out []ProbNucleus
	var nb nucleusBuilder
	var tot []int32
	pruned := 0
	for c := int32(0); int(c) < plan.cands.len(); c++ {
		closure := plan.cands.set(c)
		if est.closurePruned(closure, 0) {
			pruned++
			continue
		}
		m := est.seedCandidate(0, closure, k)
		if est.extrasPruned(0, 0) {
			pruned++
			continue
		}
		tot = resizeCleared(tot, m)
		est.scanInto(0, tot)
		if minProb, ok := est.tailVerdict(tot); ok {
			out = append(out, nb.build(local.TI, closure, k, theta, minProb))
		}
	}
	sortNuclei(out)
	return out, pruned, plan.cands.len()
}

// TestGlobalPoolRoundsPerWindow: a served g-NuDecomp request on a
// two-worker shard scores all of a window's candidates in one pool round, so
// it issues one bank-draw round and one candidate round per window, however
// many candidates survive the θ-prune; a run of three windows issues three
// times as many. Scoring each candidate's lane blocks in a round of its own
// would issue one round per surviving candidate instead.
func TestGlobalPoolRoundsPerWindow(t *testing.T) {
	local := sharedDblpLocal(t)
	o := &roundObserver{}
	eng := NewEngine(1, 2, WithObserver(o))
	defer eng.Close()
	pre, ctx := local.prepared(), context.Background()
	// The first call publishes the candidate plan.
	if _, err := eng.GlobalPrepared(ctx, pre, dblpRequest(local, dblpSeeds[0], 0)); err != nil {
		t.Fatal(err)
	}
	const perWindow = 2
	for _, seed := range dblpSeeds {
		for _, c := range []struct{ window, windows int }{{0, 1}, {34, 3}} {
			before := o.rounds.Load()
			if _, err := eng.GlobalPrepared(ctx, pre, dblpRequest(local, seed, c.window)); err != nil {
				t.Fatal(err)
			}
			if got, want := o.rounds.Load()-before, int64(perWindow*c.windows); got != want {
				t.Errorf("seed %d window %d: %d pool rounds, want %d (%d windows × one bank draw and one candidate round)",
					seed, c.window, got, want, c.windows)
			}
		}
	}
}

// TestGlobalHeavyPruneDifferential: on the served global-dblp shape, where
// the θ-prune drops most candidates, the engine's answer is byte-identical
// to the serial per-candidate reference for each of the eight Monte-Carlo
// seeds, at 1, 2 and 8 workers, in one window and in windows of 16 and 33
// worlds. Each worker count serves every request from one shard, whose
// scratch carries from one request, window size and seed to the next. The
// same shards then take a call cancelled while a window's candidate round
// is in flight: it returns ctx.Err(), and the next call answers exactly as
// before.
func TestGlobalHeavyPruneDifferential(t *testing.T) {
	local := sharedDblpLocal(t)
	pool := par.NewPool(1)
	defer pool.Close()
	want := make(map[int64][]ProbNucleus)
	for _, seed := range dblpSeeds {
		ref, pruned, nc := referenceGlobal(t, pool, local, dblpK, dblpTheta, dblpSamples, seed)
		if 2*pruned <= nc {
			t.Fatalf("seed %d: the θ-prune dropped %d of %d candidates, want most", seed, pruned, nc)
		}
		want[seed] = ref
	}
	if len(want[dblpSeeds[0]]) == 0 {
		t.Fatal("the reference accepts no candidate; the differential is vacuous")
	}
	pre := local.prepared()
	for _, w := range diffWorkerCounts {
		o := &roundObserver{}
		eng := NewEngine(1, w, WithObserver(o))
		answer := func(ctx context.Context, seed int64, window int) ([]ProbNucleus, error) {
			return eng.GlobalPrepared(ctx, pre, dblpRequest(local, seed, window))
		}
		for _, window := range []int{0, 16, 33} {
			for _, seed := range dblpSeeds {
				got, err := answer(context.Background(), seed, window)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[seed]) {
					t.Errorf("workers=%d window=%d seed %d: nuclei differ from the serial reference:\n got %+v\nwant %+v",
						w, window, seed, got, want[seed])
				}
			}
		}
		for _, window := range []int{0, 33} {
			if err := cancelMidRound(t, o, answer, window); err != nil {
				t.Errorf("workers=%d window=%d: %v", w, window, err)
			}
			seed := dblpSeeds[len(dblpSeeds)-1]
			got, err := answer(context.Background(), seed, window)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[seed]) {
				t.Errorf("workers=%d window=%d: after a cancelled call the shard answers\n %+v\nwant %+v",
					w, window, got, want[seed])
			}
		}
		eng.Close()
	}
}

// cancelMidRound runs one request at window twice on the engine o observes:
// uncancelled, to learn how many Err calls end each pool round, then with
// the context cancelled halfway through its last window's candidate round
// (the request's last round). It reports an error unless the cancelled call
// returned context.Canceled with that round in flight.
func cancelMidRound(t *testing.T, o *roundObserver, answer func(context.Context, int64, int) ([]ProbNucleus, error), window int) error {
	t.Helper()
	seed := dblpSeeds[0]
	probe := newFlipCtx(1<<62, o)
	o.ctx, o.ends = probe, nil
	if _, err := answer(probe, seed, window); err != nil {
		return fmt.Errorf("uncancelled probe: %w", err)
	}
	ends := o.ends
	last := len(ends) - 1
	if last < 1 {
		return fmt.Errorf("probe call ran %d pool rounds, want a bank draw and a candidate round", len(ends))
	}
	after := ends[last-1] + (ends[last]-ends[last-1])/2
	ctx := newFlipCtx(after, o)
	o.ctx, o.ends = ctx, nil
	start := o.rounds.Load()
	_, err := answer(ctx, seed, window)
	o.ctx = nil
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("call cancelled mid-round returned %v, want context.Canceled", err)
	}
	if inFlight := ctx.flipAt.Load() - 1 - start; inFlight != int64(last) {
		return fmt.Errorf("cancelled with %d rounds of the call ended, want %d (the candidate round in flight)", inFlight, last)
	}
	return nil
}

// TestGlobalCallReleasesPlan: a served g-NuDecomp call leaves its shard
// holding no reference into the candidate plan it ran from — neither its
// candidates nor its union tables — whether the call answers or is
// cancelled while a candidate round is in flight, so a plan is freed with
// the local result holding it while the shard serves on.
func TestGlobalCallReleasesPlan(t *testing.T) {
	o := &roundObserver{}
	eng := NewEngine(1, 2, WithObserver(o))
	defer eng.Close()
	for _, cancel := range []bool{false, true} {
		freed := servePlanOnce(t, eng, o, cancel)
		for i := 0; freed.Load() < 2; i++ {
			if i == 100 {
				t.Fatalf("cancel=%v: %d of the plan and its union tables freed after the call, want both", cancel, freed.Load())
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// servePlanOnce builds a fresh local result of krogan, publishes its plan
// at k = 1, and serves one g-NuDecomp request from it on eng, cancelled
// mid-round when cancel is set. It returns how many of the plan and its
// union tables have been finalized; nothing it builds stays reachable
// except through eng.
func servePlanOnce(t *testing.T, eng *Engine, o *roundObserver, cancel bool) *atomic.Int32 {
	t.Helper()
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.08)))
	local, err := LocalDecompose(pg, 0.1, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := local.globalPlan(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	freed := new(atomic.Int32)
	runtime.SetFinalizer(plan, func(*globalPlan) { freed.Add(1) })
	runtime.SetFinalizer(plan.wu, func(*decomp.WorldCheckUnion) { freed.Add(1) })
	pre := local.prepared()
	answer := func(ctx context.Context, seed int64, window int) ([]ProbNucleus, error) {
		return eng.GlobalPrepared(ctx, pre, NucleiRequest{K: 1, Theta: 0.1, Samples: 64, Seed: seed, Window: window, Local: local})
	}
	if cancel {
		err = cancelMidRound(t, o, answer, 0)
	} else {
		_, err = answer(context.Background(), 1, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return freed
}
