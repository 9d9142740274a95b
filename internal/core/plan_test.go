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
			want := len(local.weakPlan(1).tris)
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

// TestPlanCancelledBuildPublishesNothing: an enumeration its pool's
// cancelled context ends returns the context's error and leaves no plan on
// the result, and the next call builds one and answers as a cold call does.
func TestPlanCancelledBuildPublishesNothing(t *testing.T) {
	local := sharedKroganLocal(t)
	fresh := planless(local)
	pool := par.NewPool(1)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool.Bind(ctx)
	if _, err := fresh.globalPlan(1, pool.Err); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled plan build returned %v, want context.Canceled", err)
	}
	pool.Bind(nil)
	if p := publishedPlan(fresh, false, 1); p != nil {
		t.Fatal("a cancelled build published a plan")
	}
	// Cancelled part-way: the stop hook fails on the third seed.
	seeds := 0
	stop := func() error {
		if seeds++; seeds == 3 {
			return context.Canceled
		}
		return nil
	}
	if _, err := fresh.globalPlan(1, stop); !errors.Is(err, context.Canceled) {
		t.Fatalf("plan build cancelled mid-enumeration returned %v, want context.Canceled", err)
	}
	if p := publishedPlan(fresh, false, 1); p != nil {
		t.Fatal("a build cancelled mid-enumeration published a plan")
	}
	o := MCOptions{Samples: 64, Seed: 2, Workers: 1}
	o.Local = fresh
	got, err := GlobalNuclei(local.PG, 1, 0.1, o)
	if err != nil {
		t.Fatal(err)
	}
	if publishedPlan(fresh, false, 1) == nil {
		t.Fatal("the call after a cancelled build published no plan")
	}
	o.Local = planless(local)
	want, err := GlobalNuclei(local.PG, 1, 0.1, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the call after a cancelled build differs from a cold call")
	}
}

// TestPlanConcurrentFirstCallers: callers racing to build the first plan
// of a result all get the one plan that was published, directly and
// through concurrent requests on a two-shard engine, whose answers equal a
// cold call's.
func TestPlanConcurrentFirstCallers(t *testing.T) {
	local := sharedKroganLocal(t)
	const callers = 6
	fresh := planless(local)
	var wg sync.WaitGroup
	got := make([][2]any, callers)
	start := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			gp, err := fresh.globalPlan(1, nil)
			if err != nil {
				t.Error(err)
			}
			got[c] = [2]any{gp, fresh.weakPlan(1)}
		}(c)
	}
	close(start)
	wg.Wait()
	for c, ps := range got {
		if ps[0] != publishedPlan(fresh, false, 1) || ps[1] != publishedPlan(fresh, true, 1) {
			t.Fatalf("caller %d got plans %p/%p, the published ones are %p/%p", c, ps[0], ps[1],
				publishedPlan(fresh, false, 1), publishedPlan(fresh, true, 1))
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
			p := local.weakPlan(1)
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
