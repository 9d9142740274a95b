package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
)

// The served w-NuDecomp shape of the mixed serving workload: dblp at scale
// 0.04, k = 1, θ = 0.1, 100 sampled worlds, cycling through the Monte-Carlo
// seeds dblpSeeds.
const (
	weakDblpK       = 1
	weakDblpTheta   = 0.1
	weakDblpSamples = 100
)

// weakDblpLocal is the exact DP local decomposition the served w-NuDecomp
// requests prune with, built once per test binary and read-only.
var weakDblpLocal = sync.OnceValues(func() (*LocalResult, error) {
	pg := dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.04)))
	return LocalDecompose(pg, weakDblpTheta, Options{Mode: ModeDP, Workers: 1})
})

func sharedWeakDblpLocal(tb testing.TB) *LocalResult {
	tb.Helper()
	local, err := weakDblpLocal()
	if err != nil {
		tb.Fatal(err)
	}
	return local
}

// weakDblpRequest is one served w-NuDecomp request of that shape at the
// given seed and window, pruned by local.
func weakDblpRequest(local *LocalResult, seed int64, window int) NucleiRequest {
	return NucleiRequest{K: weakDblpK, Theta: weakDblpTheta, Samples: weakDblpSamples, Seed: seed, Window: window, Local: local}
}

// referenceWeak is the serial per-candidate w-NuDecomp loop over the full
// bank, with every peel seed cut on the call: the shared worlds are drawn
// over the union of the level-k nuclei's edges, and each nucleus in turn is
// seeded from the root incidence, scored block by block, judged on its own
// triangles and assembled. It reads nothing of a published plan.
func referenceWeak(tb testing.TB, pool *par.Pool, local *LocalResult, k int, theta float64, n int, seed int64) []ProbNucleus {
	tb.Helper()
	cands := local.NucleiForK(k)
	if len(cands) == 0 {
		return nil
	}
	union := unionEdges(cands)
	masks, words := new(mc.Bank).WorldMasksWindow(pool, local.PG.SubgraphOfEdges(union), n, 0, n, seed)
	var lanes mc.Lanes
	lanes.Transpose(masks, n, words)
	laneOf := decomp.LaneIndex(nil, local.PG.G, union)
	inc := local.incidence()
	var ps decomp.WorldPeelSeed
	var ws decomp.WorldMembershipScorer
	var nb nucleusBuilder
	var out []ProbNucleus
	for _, c := range cands {
		ps.Seed(local.TI, inc, c.TriIDs, laneOf, k)
		lost := make([]int32, ps.Len())
		scoreLanesSerial(&ws, &ps, &lanes, lost)
		qual := resizeFilled(nil, ps.Len(), -1)
		for _, t := range c.TriIDs {
			v := ps.ViewID(t)
			if !ps.InCore(v) {
				continue
			}
			if p := float64(int32(n)-lost[v]) / float64(n); p >= theta {
				qual[v] = p
			}
		}
		out = append(out, assembleWeakNuclei(&nb, local.TI, &ps, qual, k, theta)...)
	}
	sortNuclei(out)
	return out
}

// TestWeakPoolRoundsPerWindow: a served w-NuDecomp request on a two-worker
// shard scores all of a window's candidates in one pool round, so it issues
// one bank-draw round and one candidate round per window; a run of three
// windows issues three times as many. Scoring each candidate's lane blocks
// in a round of its own would issue one round per candidate instead.
func TestWeakPoolRoundsPerWindow(t *testing.T) {
	local := sharedWeakDblpLocal(t)
	o := &roundObserver{}
	eng := NewEngine(1, 2, WithObserver(o))
	defer eng.Close()
	pre, ctx := local.prepared(), context.Background()
	// The first call publishes the candidate plan.
	if _, err := eng.WeakPrepared(ctx, pre, weakDblpRequest(local, dblpSeeds[0], 0)); err != nil {
		t.Fatal(err)
	}
	if p, _ := local.weakPlan(weakDblpK, nil); len(p.tris) < 2 {
		t.Fatalf("fixture too small: %d candidates", len(p.tris))
	}
	const perWindow = 2
	for _, seed := range dblpSeeds {
		for _, c := range []struct{ window, windows int }{{0, 1}, {34, 3}} {
			before := o.rounds.Load()
			if _, err := eng.WeakPrepared(ctx, pre, weakDblpRequest(local, seed, c.window)); err != nil {
				t.Fatal(err)
			}
			if got, want := o.rounds.Load()-before, int64(perWindow*c.windows); got != want {
				t.Errorf("seed %d window %d: %d pool rounds, want %d (%d windows × one bank draw and one candidate round)",
					seed, c.window, got, want, c.windows)
			}
		}
	}
}

// TestWeakRoundDifferential: on the served w-NuDecomp shape the engine's
// answer, scored from the plan's published peel seeds in one round per
// window, is byte-identical to the serial reference that cuts every seed on
// the call, for each of the eight Monte-Carlo seeds, at 1, 2 and 8 workers,
// in one window and in windows of 16 and 33 worlds. Each worker count
// serves every request from one shard, whose scratch carries from one
// request, window size and seed to the next. The same shards then take a
// call cancelled while a window's candidate round is in flight: it returns
// ctx.Err(), and the next call answers exactly as before.
func TestWeakRoundDifferential(t *testing.T) {
	local := sharedWeakDblpLocal(t)
	pool := par.NewPool(1)
	defer pool.Close()
	want := make(map[int64][]ProbNucleus)
	for _, seed := range dblpSeeds {
		want[seed] = referenceWeak(t, pool, local, weakDblpK, weakDblpTheta, weakDblpSamples, seed)
	}
	if len(want[dblpSeeds[0]]) == 0 {
		t.Fatal("the reference finds no nucleus; the differential is vacuous")
	}
	pre := local.prepared()
	for _, w := range diffWorkerCounts {
		o := &roundObserver{}
		eng := NewEngine(1, w, WithObserver(o))
		answer := func(ctx context.Context, seed int64, window int) ([]ProbNucleus, error) {
			return eng.WeakPrepared(ctx, pre, weakDblpRequest(local, seed, window))
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

// TestWeakSharedPlanTwoShards: two shards of two workers each serve
// w-NuDecomp requests from four clients at once, every request at a
// different seed or window but all from one local result, so the shards'
// workers read the one published plan's peel seeds concurrently; every
// answer equals the serial reference.
func TestWeakSharedPlanTwoShards(t *testing.T) {
	local := sharedWeakDblpLocal(t)
	pool := par.NewPool(1)
	defer pool.Close()
	want := make(map[int64][]ProbNucleus)
	for _, seed := range dblpSeeds {
		want[seed] = referenceWeak(t, pool, local, weakDblpK, weakDblpTheta, weakDblpSamples, seed)
	}
	fresh := planless(local)
	pre := fresh.prepared()
	eng := NewEngine(2, 2)
	defer eng.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, seed := range dblpSeeds {
				window := []int{0, 16, 33}[(c+i)%3]
				got, err := eng.WeakPrepared(context.Background(), pre, weakDblpRequest(fresh, seed, window))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[seed]) {
					t.Errorf("client %d seed %d window %d: nuclei differ from the serial reference", c, seed, window)
				}
			}
		}(c)
	}
	wg.Wait()
	if publishedPlan(fresh, true, weakDblpK) == nil {
		t.Error("the concurrent requests published no plan")
	}
}

// TestWeakWindowRoundAllocationFree: a whole w-NuDecomp run past a
// published plan's candidates — binding the scratch, and per window the
// bank draw and the one round of scoreWindow (the transpose, then every
// candidate scored into its loss totals, and judged on the last window),
// the concatenation of the slots and the release — must not allocate once
// the scratch has reached steady state: in one window, and in windows of
// 16 worlds. Assembling nuclei allocates their result slices, so the run
// is at a θ above 1, where the judge scores every core triangle and none
// qualifies; at θ = 0.1 the same scratch must give the kernel's answer.
// The pool has one worker, so which worker scores which candidate is fixed.
func TestWeakWindowRoundAllocationFree(t *testing.T) {
	local := sharedKroganLocal(t)
	plan, err := local.weakPlan(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(1)
	defer pool.Close()
	const n = 64
	var bank mc.Bank
	wx := new(weakScratch)
	run := func(window int, theta float64) []ProbNucleus {
		wx.bind(pool, plan, local.TI, n, 1, theta)
		defer wx.release()
		for lo := 0; lo < n; lo += window {
			masks, words := bank.WorldMasksWindow(pool, plan.upg, n, lo, lo+window, 1)
			wx.scoreWindow(masks, window, words, lo+window == n)
		}
		return wx.nuclei()
	}
	want, err := WeaklyGlobalNuclei(local.PG, 1, 0.1, MCOptions{Samples: n, Seed: 1, Workers: 1, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the kernel finds no nucleus; the comparison is vacuous")
	}
	none := math.Nextafter(1, 2)
	for _, window := range []int{n, 16} {
		if got := run(window, 0.1); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: the round gives %v, the kernel %v", window, got, want)
		}
		run(window, none) // warm every scratch buffer
		if allocs := testing.AllocsPerRun(2, func() { run(window, none) }); allocs != 0 {
			t.Errorf("window %d: a run of window rounds allocates %v, want 0", window, allocs)
		}
	}
}

// TestWeakPlanSeedsMatchCut: every peel seed the plan publishes binds its
// candidate as a seed cut on the call does, and the plan's view ids of the
// candidate's own triangles are the cut seed's, at k = 0, 1 and 2.
func TestWeakPlanSeedsMatchCut(t *testing.T) {
	local := sharedKroganLocal(t)
	inc := local.incidence()
	for k := 0; k <= 2; k++ {
		plan, err := local.weakPlan(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.tris) == 0 {
			continue
		}
		laneOf := decomp.LaneIndex(nil, local.PG.G, plan.union)
		var cut decomp.WorldPeelSeed
		for c, tris := range plan.tris {
			cut.Seed(local.TI, inc, tris, laneOf, k)
			ps := &plan.seeds[c]
			where := fmt.Sprintf("k=%d candidate %d", k, c)
			if ps.Len() != cut.Len() || !slices.Equal(ps.Cliques(), cut.Cliques()) {
				t.Fatalf("%s: published seed has %d view triangles and %d cliques, the cut %d and %d",
					where, ps.Len(), len(ps.Cliques()), cut.Len(), len(cut.Cliques()))
			}
			for v := int32(0); int(v) < cut.Len(); v++ {
				if ps.Root(v) != cut.Root(v) || ps.InCore(v) != cut.InCore(v) {
					t.Fatalf("%s: view triangle %d differs from the cut", where, v)
				}
			}
			for j, tri := range tris {
				if plan.tview[c][j] != cut.ViewID(tri) {
					t.Fatalf("%s: triangle %d has view id %d in the plan, %d in the cut", where, tri, plan.tview[c][j], cut.ViewID(tri))
				}
			}
			if got, want := plan.lossOff[c+1]-plan.lossOff[c], int32(cut.Len()); got != want {
				t.Fatalf("%s: %d loss slots laid out, want %d", where, got, want)
			}
		}
	}
}
