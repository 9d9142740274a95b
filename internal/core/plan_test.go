package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/obs"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// planless returns a result with local's fields, peeled from the same
// artifact, on which no plan is published yet: a call that prunes with it
// builds its plans cold.
func planless(local *LocalResult) *LocalResult {
	r := &LocalResult{PG: local.PG, TI: local.TI, Theta: local.Theta, Nucleusness: local.Nucleusness}
	r.pre.Store(local.prepared())
	return r
}

// publishedPlan returns the plan local holds for sem at level k, or nil.
func publishedPlan(local *LocalResult, weak bool, k int) any {
	m := &local.globalPlans.m
	if weak {
		m = &local.weakPlans.m
	}
	p, _ := m.Load(k)
	return p
}

// TestPlanWarmMatchesCold: a call that runs from a plan an earlier call
// published (warm) returns nuclei byte-identical to a call that builds its
// plan (cold), for g- and w-NuDecomp at k = 0, 1 and 2 and θ = 0.001, 0.3
// and 0.57, with one window, several windows or a memory budget, on 1 and
// 2 workers and for several seeds and sample counts; and every warm call
// at one (k, θ), whatever its Seed, Samples, Window, MemBudget or worker
// count, runs from the one plan the first published.
func TestPlanWarmMatchesCold(t *testing.T) {
	graphs := []struct {
		name string
		pg   *probgraph.Graph
	}{
		{"fig1", fixtures.Fig1()},
		{"krogan", dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))},
	}
	seeds := []int64{1, 2, 3}
	if raceEnabled { // instrumented, krogan takes minutes
		graphs, seeds = graphs[:1], seeds[:1]
	}
	windows := []MCOptions{{}, {Window: 41}, {MemBudget: 2048}}
	for _, g := range graphs {
		for _, theta := range []float64{0.001, 0.3, 0.57} {
			local, err := LocalDecompose(g.pg, theta, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, 2} {
				for _, weak := range []bool{false, true} {
					kernel, sem := GlobalNuclei, "global"
					if weak {
						kernel, sem = WeaklyGlobalNuclei, "weak"
					}
					var first any
					for _, o := range windows {
						for _, workers := range []int{1, 2} {
							for _, seed := range seeds {
								o.Seed, o.Samples, o.Workers = seed, 64+32*int(seed), workers
								where := fmt.Sprintf("%s %s θ=%v k=%d %+v", g.name, sem, theta, k, o)
								o.Local = planless(local)
								cold, err := kernel(g.pg, k, theta, o)
								if err != nil {
									t.Fatal(where, err)
								}
								o.Local = local
								warm, err := kernel(g.pg, k, theta, o)
								if err != nil {
									t.Fatal(where, err)
								}
								if !reflect.DeepEqual(warm, cold) {
									t.Fatalf("%s: warm plan gives %v, cold call %v", where, warm, cold)
								}
								p := publishedPlan(local, weak, k)
								if first == nil {
									first = p
								}
								if p == nil || p != first {
									t.Fatalf("%s: the warm call ran from plan %p, the first published %p", where, p, first)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPlanCandidateEventsPerRequest: a request that runs from a published
// plan still reports every candidate it validates to the observer, once
// per candidate per request, as the request that built the plan does.
func TestPlanCandidateEventsPerRequest(t *testing.T) {
	local := planless(sharedKroganLocal(t))
	m := new(obs.Metrics)
	eng := NewEngine(1, 1, WithObserver(m))
	defer eng.Close()
	ctx := context.Background()
	for _, weak := range []bool{false, true} {
		query := eng.GlobalPrepared
		if weak {
			query = eng.WeakPrepared
		}
		for i := int64(1); i <= 3; i++ {
			before := m.Snapshot().Candidates
			if _, err := query(ctx, local.prepared(), NucleiRequest{K: 1, Theta: 0.1, Samples: 32, Seed: i, Local: local}); err != nil {
				t.Fatal(err)
			}
			wp, _ := local.weakPlan(1, nil)
			want := len(wp.tris)
			if !weak {
				p, _ := local.globalPlan(1, nil)
				want = p.cands.len()
			}
			if got := m.Snapshot().Candidates - before; got != int64(want) || want == 0 {
				t.Errorf("weak=%v request %d: %d candidate events, want %d", weak, i, got, want)
			}
		}
	}
}

// TestPlanCancelledBuildPublishesNothing: for g- and w-NuDecomp, a plan
// build its pool's cancelled context ends returns the context's error and
// leaves no plan on the result, as does one whose stop hook fails part-way
// (on the third seed of g-NuDecomp's enumeration, at the third candidate
// of w-NuDecomp's seed cut), and the next call builds one and answers as a
// cold call does.
func TestPlanCancelledBuildPublishesNothing(t *testing.T) {
	local := sharedKroganLocal(t)
	if p, _ := local.weakPlan(1, nil); len(p.tris) < 3 {
		t.Fatalf("fixture too small: %d w-NuDecomp candidates, want 3 or more", len(p.tris))
	}
	for _, weak := range []bool{false, true} {
		kernel, sem := GlobalNuclei, "global"
		build := func(r *LocalResult, stop func() error) (any, error) { return r.globalPlan(1, stop) }
		if weak {
			kernel, sem = WeaklyGlobalNuclei, "weak"
			build = func(r *LocalResult, stop func() error) (any, error) { return r.weakPlan(1, stop) }
		}
		fresh := planless(local)
		pool := par.NewPool(1)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		pool.Bind(ctx)
		if _, err := build(fresh, pool.Err); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled plan build returned %v, want context.Canceled", sem, err)
		}
		pool.Close()
		if p := publishedPlan(fresh, weak, 1); p != nil {
			t.Fatalf("%s: a cancelled build published a plan", sem)
		}
		// Cancelled part-way: the stop hook fails on its third call.
		calls := 0
		stop := func() error {
			if calls++; calls == 3 {
				return context.Canceled
			}
			return nil
		}
		if _, err := build(fresh, stop); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: plan build cancelled part-way returned %v, want context.Canceled", sem, err)
		}
		if p := publishedPlan(fresh, weak, 1); p != nil {
			t.Fatalf("%s: a build cancelled part-way published a plan", sem)
		}
		o := MCOptions{Samples: 64, Seed: 2, Workers: 1}
		o.Local = fresh
		got, err := kernel(local.PG, 1, 0.1, o)
		if err != nil {
			t.Fatal(err)
		}
		if publishedPlan(fresh, weak, 1) == nil {
			t.Fatalf("%s: the call after a cancelled build published no plan", sem)
		}
		o.Local = planless(local)
		want, err := kernel(local.PG, 1, 0.1, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: the cold call finds no nucleus; the comparison is vacuous", sem)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the call after a cancelled build differs from a cold call", sem)
		}
	}
}

// TestPlanConcurrentFirstCallers: callers racing to build the first plans
// of a result all get the one g- and the one w-NuDecomp plan that were
// published, directly and through concurrent requests on a two-shard
// engine, whose answers equal a cold call's. Every other direct caller's
// build is cancelled from its first stop check: it gets either the
// context's error or, when another caller has published first, that plan.
func TestPlanConcurrentFirstCallers(t *testing.T) {
	local := sharedKroganLocal(t)
	const callers = 6
	fresh := planless(local)
	var wg sync.WaitGroup
	got := make([][2]any, callers)
	start := make(chan struct{})
	cancelled := func() error { return context.Canceled }
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			var stop func() error
			if c%2 == 1 {
				stop = cancelled
			}
			gp, gerr := fresh.globalPlan(1, stop)
			wp, werr := fresh.weakPlan(1, stop)
			for _, err := range []error{gerr, werr} {
				if err != nil && (stop == nil || !errors.Is(err, context.Canceled)) {
					t.Errorf("caller %d: %v", c, err)
				}
			}
			got[c] = [2]any{gp, wp}
			if gerr != nil {
				got[c][0] = nil
			}
			if werr != nil {
				got[c][1] = nil
			}
		}(c)
	}
	close(start)
	wg.Wait()
	for c, ps := range got {
		for i, weak := range []bool{false, true} {
			if ps[i] == nil && c%2 == 1 {
				continue // cancelled before a plan was published
			}
			if ps[i] != publishedPlan(fresh, weak, 1) {
				t.Fatalf("caller %d weak=%v got plan %p, the published one is %p", c, weak, ps[i], publishedPlan(fresh, weak, 1))
			}
		}
	}

	eng := NewEngine(2, 2)
	defer eng.Close()
	shared := planless(local)
	for _, sem := range []string{"global", "weak"} {
		query, kernel, weak := eng.GlobalPrepared, GlobalNuclei, false
		if sem == "weak" {
			query, kernel, weak = eng.WeakPrepared, WeaklyGlobalNuclei, true
		}
		want, err := kernel(local.PG, 1, 0.1, MCOptions{Samples: 64, Seed: 3, Local: planless(local)})
		if err != nil {
			t.Fatal(err)
		}
		answers := make([][]ProbNucleus, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				a, err := query(context.Background(), shared.prepared(), NucleiRequest{K: 1, Theta: 0.1, Samples: 64, Seed: 3, Local: shared})
				if err != nil {
					t.Error(err)
				}
				answers[c] = a
			}(c)
		}
		wg.Wait()
		for c, a := range answers {
			if !reflect.DeepEqual(a, want) {
				t.Errorf("%s caller %d: answer differs from a cold call", sem, c)
			}
		}
		if publishedPlan(shared, weak, 1) == nil {
			t.Errorf("%s: concurrent requests published no plan", sem)
		}
	}
}

// TestPlanBytes logs the memory a candidate plan holds for the request
// shapes of the repository's benchmark workloads — served g-NuDecomp on
// dblp (k = 1, θ = 0.57) and krogan (k = 1, θ = 0.001), served
// w-NuDecomp on dblp (k = 1, θ = 0.1), all at scale 0.04 — and bounds each
// at 1 MB: a plan lives as long as its cached local result, so it adds to
// a server's resident memory.
func TestPlanBytes(t *testing.T) {
	for _, c := range []struct {
		graph string
		weak  bool
		theta float64
	}{
		{"dblp", false, 0.57},
		{"krogan", false, 0.001},
		{"dblp", true, 0.1},
	} {
		pg := dataset.Generate(dataset.MustLoad(c.graph, dataset.Scale(0.04)))
		local, err := LocalDecompose(pg, c.theta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var plan any
		var cands int
		if c.weak {
			p, err := local.weakPlan(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, cands = p, len(p.tris)
		} else {
			p, err := local.globalPlan(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, cands = p, p.cands.len()
		}
		bytes := heldBytes(reflect.ValueOf(plan))
		t.Logf("%s weak=%v θ=%v k=1: %d candidates, plan %d bytes", c.graph, c.weak, c.theta, cands, bytes)
		if bytes > 1<<20 {
			t.Errorf("%s weak=%v θ=%v: plan holds %d bytes, over 1 MB", c.graph, c.weak, c.theta, bytes)
		}
	}
}

// heldBytes counts the memory reachable from v: the pointee of every
// pointer and the backing array (to its capacity) of every slice, each
// counted once, plus what they reach in turn. Maps are not followed; a
// plan holds none.
func heldBytes(v reflect.Value) int {
	seen := make(map[[2]uintptr]bool)
	var walk func(v reflect.Value) int
	walk = func(v reflect.Value) int {
		switch v.Kind() {
		case reflect.Pointer:
			key := [2]uintptr{v.Pointer(), v.Type().Elem().Size()}
			if v.IsNil() || seen[key] {
				return 0
			}
			seen[key] = true
			return int(key[1]) + walk(v.Elem())
		case reflect.Slice:
			key := [2]uintptr{v.Pointer(), uintptr(v.Cap())}
			if v.Cap() == 0 || seen[key] {
				return 0
			}
			seen[key] = true
			n := v.Cap() * int(v.Type().Elem().Size())
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Struct, reflect.Array, reflect.Interface:
				for i := 0; i < v.Len(); i++ {
					n += walk(v.Index(i))
				}
			}
			return n
		case reflect.Struct:
			n := 0
			for i := 0; i < v.NumField(); i++ {
				n += walk(v.Field(i))
			}
			return n
		case reflect.Array:
			n := 0
			for i := 0; i < v.Len(); i++ {
				n += walk(v.Index(i))
			}
			return n
		case reflect.Interface:
			if v.IsNil() {
				return 0
			}
			return walk(v.Elem())
		}
		return 0
	}
	return walk(v)
}
