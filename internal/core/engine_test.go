package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"probnucleus/internal/dataset"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/obs"
	"probnucleus/internal/probgraph"
)

// engineCase is one (graph, k, θ, sampling) workload plus its package-level
// reference results, shared by the differential and stress tests.
type engineCase struct {
	name    string
	pg      *probgraph.Graph
	k       int
	theta   float64
	samples int
	seed    int64

	wantLocal []int // Nucleusness of the serial LocalDecompose
	wantGlob  []ProbNucleus
	wantWeak  []ProbNucleus
}

func engineCases(t testing.TB) []engineCase {
	cases := []engineCase{
		{name: "fig1", pg: fixtures.Fig1(), k: 1, theta: 0.35, samples: 300, seed: 5},
		{name: "k5", pg: fixtures.Fig3cK5(), k: 2, theta: 0.01, samples: 200, seed: 7},
		{name: "krogan", pg: dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))),
			k: 1, theta: 0.001, samples: 60, seed: 1},
	}
	for i := range cases {
		c := &cases[i]
		local, err := LocalDecompose(c.pg, c.theta, Options{Mode: ModeDP, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		c.wantLocal = local.Nucleusness
		opts := MCOptions{Samples: c.samples, Seed: c.seed, Workers: 1}
		if c.wantGlob, err = GlobalNuclei(c.pg, c.k, c.theta, opts); err != nil {
			t.Fatal(err)
		}
		if c.wantWeak, err = WeaklyGlobalNuclei(c.pg, c.k, c.theta, opts); err != nil {
			t.Fatal(err)
		}
	}
	return cases
}

// checkEngineCase runs all three semantics for c on eng and byte-compares
// each result against the package-level reference.
func checkEngineCase(ctx context.Context, eng *Engine, c engineCase) error {
	local, err := eng.Local(ctx, c.pg, LocalRequest{Theta: c.theta})
	if err != nil {
		return fmt.Errorf("%s: engine local: %w", c.name, err)
	}
	if !reflect.DeepEqual(local.Nucleusness, c.wantLocal) {
		return fmt.Errorf("%s: engine local nucleusness differs from LocalDecompose", c.name)
	}
	req := NucleiRequest{K: c.k, Theta: c.theta, Samples: c.samples, Seed: c.seed}
	glob, err := eng.Global(ctx, c.pg, req)
	if err != nil {
		return fmt.Errorf("%s: engine global: %w", c.name, err)
	}
	if !reflect.DeepEqual(glob, c.wantGlob) {
		return fmt.Errorf("%s: engine global nuclei differ from GlobalNuclei", c.name)
	}
	weak, err := eng.Weak(ctx, c.pg, req)
	if err != nil {
		return fmt.Errorf("%s: engine weak: %w", c.name, err)
	}
	if !reflect.DeepEqual(weak, c.wantWeak) {
		return fmt.Errorf("%s: engine weak nuclei differ from WeaklyGlobalNuclei", c.name)
	}
	return nil
}

// TestEngineMatchesPackageFunctions: every (shard count, worker count)
// configuration must reproduce the package-level results byte-for-byte —
// sharding is a dispatch concern, never a semantic one. With one shard, the
// cases run back to back on the same parked workers and scratch, so reuse
// across requests is covered at every worker count.
func TestEngineMatchesPackageFunctions(t *testing.T) {
	cases := engineCases(t)
	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				eng := NewEngine(shards, workers)
				defer eng.Close()
				for _, c := range cases {
					if err := checkEngineCase(context.Background(), eng, c); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestEngineConcurrentStress: N goroutines issue mixed local/global/weak
// requests against one shared Engine, every result byte-compared against the
// package-level functions. Run under -race (scripts/ci.sh does), this is the
// concurrency contract of the serving redesign: shard checkout makes mixed
// traffic safe, and reuse across requests leaks nothing between callers.
func TestEngineConcurrentStress(t *testing.T) {
	cases := engineCases(t)
	eng := NewEngine(3, 2)
	defer eng.Close()
	const goroutines = 8
	const iters = 4
	errc := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Walk the cases with a per-goroutine stride so shards see
				// interleaved graph sizes, not convoys of the same request.
				c := cases[(g+i)%len(cases)]
				if err := checkEngineCase(context.Background(), eng, c); err != nil {
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

// TestEngineCancellationMidRun: cancelling a long request returns ctx.Err()
// well before the uncancelled runtime, and the shard that served it goes
// back on the free list fully reusable — the next uncancelled request still
// matches the package-level result.
func TestEngineCancellationMidRun(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))
	eng := NewEngine(1, 2)
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	// Uncancelled, this request runs for many seconds (thousands of shared
	// worlds over every candidate).
	start := time.Now()
	_, err := eng.Global(ctx, pg, NucleiRequest{K: 1, Theta: 0.001, Samples: 4000, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Global returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled Global took %v; cancellation did not propagate promptly", elapsed)
	}

	// Shard reuse after cancellation.
	for _, c := range engineCases(t)[:1] {
		if err := checkEngineCase(context.Background(), eng, c); err != nil {
			t.Errorf("after cancellation: %v", err)
		}
	}
}

// stallObserver sleeps for d at the first Candidate event it sees, so a
// request whose deadline is shorter than d overruns it inside the kernel
// however fast the kernel is.
type stallObserver struct {
	obs.NopObserver
	d    time.Duration
	once sync.Once
}

func (o *stallObserver) Candidate(int) { o.once.Do(func() { time.Sleep(o.d) }) }

// TestEngineDeadline: a per-request timeout context surfaces as
// context.DeadlineExceeded, the serving loop's usual shape. The observer
// stalls the kernel at its first candidate until well past the deadline, so
// the overrun does not depend on how long the request would take.
func TestEngineDeadline(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))
	eng := NewEngine(1, 2, WithObserver(&stallObserver{d: 60 * time.Millisecond}))
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := eng.Weak(ctx, pg, NucleiRequest{K: 1, Theta: 0.001, Samples: 4000, Seed: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out Weak returned %v, want context.DeadlineExceeded", err)
	}
}

// TestEngineCancelledBeforeCall: an already-cancelled context fails fast
// without consuming a shard, and the engine stays usable.
func TestEngineCancelledBeforeCall(t *testing.T) {
	eng := NewEngine(1, 1)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Local(ctx, fixtures.Fig1(), LocalRequest{Theta: 0.3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Local returned %v, want context.Canceled", err)
	}
	if _, err := eng.Local(context.Background(), fixtures.Fig1(), LocalRequest{Theta: 0.3}); err != nil {
		t.Fatalf("engine unusable after a pre-cancelled call: %v", err)
	}
}

// TestEngineCloseUnblocksWaiters: a request still waiting for a shard when
// Close runs fails with ErrEngineClosed instead of blocking forever on a
// free list no shard will ever return to.
func TestEngineCloseUnblocksWaiters(t *testing.T) {
	eng := NewEngine(1, 1)
	s, err := eng.acquire(context.Background(), obs.SemLocal)
	if err != nil {
		t.Fatal(err)
	}
	// The only shard is checked out, so this waiter blocks in acquire with
	// a context that can never be cancelled.
	waitErr := make(chan error, 1)
	go func() {
		_, err := eng.Local(context.Background(), fixtures.Fig1(), LocalRequest{Theta: 0.3})
		waitErr <- err
	}()
	// Close concurrently; it blocks until the held shard is released.
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond) // let both goroutines reach their waits
	eng.release(s)
	<-closed
	select {
	case err := <-waitErr:
		// The waiter either lost the shard race to Close (ErrEngineClosed)
		// or won the releasing shard and was served before the pool closed.
		if err != nil && !errors.Is(err, ErrEngineClosed) {
			t.Errorf("waiter returned %v, want nil or ErrEngineClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after Close")
	}
}

// TestEngineRejectsInvalidRequests: Validate gates every method, so a
// malformed request never reaches a shard.
func TestEngineRejectsInvalidRequests(t *testing.T) {
	eng := NewEngine(1, 1)
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Local(ctx, fixtures.Fig1(), LocalRequest{Theta: 0}); !errors.Is(err, ErrTheta) {
		t.Errorf("Local theta=0: %v, want ErrTheta", err)
	}
	if _, err := eng.Global(ctx, fixtures.Fig1(), NucleiRequest{K: -1, Theta: 0.3}); !errors.Is(err, ErrNegativeK) {
		t.Errorf("Global k=-1: %v, want ErrNegativeK", err)
	}
	if _, err := eng.Weak(ctx, fixtures.Fig1(), NucleiRequest{K: 1, Theta: 0.3, Samples: -2}); !errors.Is(err, ErrBadSampleSpec) {
		t.Errorf("Weak samples=-2: %v, want ErrBadSampleSpec", err)
	}
}

// TestSentinelErrors: every validation failure — package-level functions and
// request Validate methods alike — matches its sentinel via errors.Is, and
// well-formed requests validate clean.
func TestSentinelErrors(t *testing.T) {
	fig := fixtures.Fig1()
	if _, err := LocalDecompose(fig, 0, Options{Workers: 1}); !errors.Is(err, ErrTheta) {
		t.Errorf("LocalDecompose theta=0: %v, want ErrTheta", err)
	}
	if _, err := LocalDecompose(fig, 1.5, Options{Workers: 1}); !errors.Is(err, ErrTheta) {
		t.Errorf("LocalDecompose theta=1.5: %v, want ErrTheta", err)
	}
	if _, _, err := initialKappa(fig, -0.2, Options{Workers: 1}); !errors.Is(err, ErrTheta) {
		t.Errorf("initialKappa theta=-0.2: %v, want ErrTheta", err)
	}
	if _, err := GlobalNuclei(fig, -3, 0.3, MCOptions{Workers: 1}); !errors.Is(err, ErrNegativeK) {
		t.Errorf("GlobalNuclei k=-3: %v, want ErrNegativeK", err)
	}
	if _, err := WeaklyGlobalNuclei(fig, -1, 0.3, MCOptions{Workers: 1}); !errors.Is(err, ErrNegativeK) {
		t.Errorf("WeaklyGlobalNuclei k=-1: %v, want ErrNegativeK", err)
	}
	if _, err := GlobalNuclei(fig, 1, 0.3, MCOptions{Samples: -5, Workers: 1}); !errors.Is(err, ErrBadSampleSpec) {
		t.Errorf("GlobalNuclei samples=-5: %v, want ErrBadSampleSpec", err)
	}
	if _, err := WeaklyGlobalNuclei(fig, 1, 0.3, MCOptions{Eps: -0.1, Workers: 1}); !errors.Is(err, ErrBadSampleSpec) {
		t.Errorf("WeaklyGlobalNuclei eps=-0.1: %v, want ErrBadSampleSpec", err)
	}
	if _, err := GlobalNuclei(fig, 1, 0.3, MCOptions{Delta: 2, Workers: 1}); !errors.Is(err, ErrBadSampleSpec) {
		t.Errorf("GlobalNuclei delta=2: %v, want ErrBadSampleSpec", err)
	}
	// Sample counts past math.MaxInt32 — explicit, or from a tiny ε — cannot
	// be represented by the int32 per-triangle counts, on the package-level
	// functions and on an Engine alike.
	eng := NewEngine(1, 1)
	defer eng.Close()
	for _, o := range []MCOptions{{Eps: 1e-10}, {Samples: math.MaxInt32 + 1}} {
		o.Workers = 1
		if _, err := GlobalNuclei(fig, 1, 0.1, o); !errors.Is(err, ErrBadSampleSpec) {
			t.Errorf("GlobalNuclei eps=%v samples=%d: %v, want ErrBadSampleSpec", o.Eps, o.Samples, err)
		}
		if _, err := WeaklyGlobalNuclei(fig, 1, 0.1, o); !errors.Is(err, ErrBadSampleSpec) {
			t.Errorf("WeaklyGlobalNuclei eps=%v samples=%d: %v, want ErrBadSampleSpec", o.Eps, o.Samples, err)
		}
		req := nucleiRequest(1, 0.1, o)
		if _, err := eng.Global(context.Background(), fig, req); !errors.Is(err, ErrBadSampleSpec) {
			t.Errorf("Engine.Global eps=%v samples=%d: %v, want ErrBadSampleSpec", o.Eps, o.Samples, err)
		}
		if _, err := eng.Weak(context.Background(), fig, req); !errors.Is(err, ErrBadSampleSpec) {
			t.Errorf("Engine.Weak eps=%v samples=%d: %v, want ErrBadSampleSpec", o.Eps, o.Samples, err)
		}
	}

	if err := (LocalRequest{Theta: 0}).Validate(); !errors.Is(err, ErrTheta) {
		t.Errorf("LocalRequest.Validate theta=0: %v, want ErrTheta", err)
	}
	if err := (NucleiRequest{K: -1, Theta: 0.3}).Validate(); !errors.Is(err, ErrNegativeK) {
		t.Errorf("NucleiRequest.Validate k=-1: %v, want ErrNegativeK", err)
	}
	if err := (NucleiRequest{K: 1, Theta: 0.3, Delta: 2}).Validate(); !errors.Is(err, ErrBadSampleSpec) {
		t.Errorf("NucleiRequest.Validate delta=2: %v, want ErrBadSampleSpec", err)
	}
	if err := (LocalRequest{Theta: 0.5, Mode: ModeAP}).Validate(); err != nil {
		t.Errorf("valid LocalRequest rejected: %v", err)
	}
	if err := (NucleiRequest{K: 2, Theta: 0.5, Eps: 0.2, Delta: 0.05}).Validate(); err != nil {
		t.Errorf("valid NucleiRequest rejected: %v", err)
	}
}

// TestLocalThetaAboveRequestRefused: a supplied Local decomposed above the
// request's θ has too small a candidate space, so global and weak requests
// refuse it with ErrLocalTheta — on the package-level functions, the Engine
// and NucleiRequest.Validate alike — while a Local at exactly the request's
// θ or below it is accepted and matches the run that computes its own.
func TestLocalThetaAboveRequestRefused(t *testing.T) {
	fig := fixtures.Fig1()
	const theta0 = 0.35
	local, err := LocalDecompose(fig, theta0, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(1, 1)
	defer eng.Close()
	ctx := context.Background()
	type nucleiFunc func(float64, MCOptions) ([]ProbNucleus, error)
	sems := []struct {
		name   string
		pkg    nucleiFunc
		engine func(NucleiRequest) ([]ProbNucleus, error)
	}{
		{"global",
			func(theta float64, o MCOptions) ([]ProbNucleus, error) { return GlobalNuclei(fig, 1, theta, o) },
			func(req NucleiRequest) ([]ProbNucleus, error) { return eng.Global(ctx, fig, req) }},
		{"weak",
			func(theta float64, o MCOptions) ([]ProbNucleus, error) { return WeaklyGlobalNuclei(fig, 1, theta, o) },
			func(req NucleiRequest) ([]ProbNucleus, error) { return eng.Weak(ctx, fig, req) }},
	}
	for _, sem := range sems {
		for _, theta := range []float64{0.34, math.Nextafter(theta0, 0)} {
			o := MCOptions{Samples: 64, Seed: 1, Workers: 1, Local: local}
			if _, err := sem.pkg(theta, o); !errors.Is(err, ErrLocalTheta) {
				t.Errorf("%s θ=%v, Local at %v: %v, want ErrLocalTheta", sem.name, theta, theta0, err)
			}
			if _, err := sem.engine(nucleiRequest(1, theta, o)); !errors.Is(err, ErrLocalTheta) {
				t.Errorf("Engine %s θ=%v, Local at %v: %v, want ErrLocalTheta", sem.name, theta, theta0, err)
			}
		}
		nonEmpty := false
		for _, theta := range []float64{theta0, 0.5} {
			own, err := sem.pkg(theta, MCOptions{Samples: 64, Seed: 1, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			o := MCOptions{Samples: 64, Seed: 1, Workers: 1, Local: local}
			got, err := sem.pkg(theta, o)
			if err != nil {
				t.Errorf("%s θ=%v, Local at %v: %v, want accepted", sem.name, theta, theta0, err)
			}
			viaEngine, err := sem.engine(nucleiRequest(1, theta, o))
			if err != nil {
				t.Errorf("Engine %s θ=%v, Local at %v: %v, want accepted", sem.name, theta, theta0, err)
			}
			if theta == theta0 && !(reflect.DeepEqual(got, own) && reflect.DeepEqual(viaEngine, own)) {
				t.Errorf("%s θ=%v: results with the supplied Local differ from the computed one", sem.name, theta)
			}
			nonEmpty = nonEmpty || len(got) > 0
		}
		if !nonEmpty {
			t.Errorf("%s: no nuclei at θ ≥ %v; the accepted cases are vacuous", sem.name, theta0)
		}
	}
	req := NucleiRequest{K: 1, Theta: 0.2, Local: local}
	if err := req.Validate(); !errors.Is(err, ErrLocalTheta) {
		t.Errorf("NucleiRequest.Validate θ=0.2, Local at %v: %v, want ErrLocalTheta", theta0, err)
	}
	req.Theta = theta0
	if err := req.Validate(); err != nil {
		t.Errorf("NucleiRequest.Validate θ=%v, Local at %v: %v, want nil", theta0, theta0, err)
	}
}

// TestEngineOverload: with admission bounded, a request arriving while every
// shard is busy and the queue is full returns ErrOverloaded immediately
// instead of parking on the free list. Run under -race by the ci.sh
// overload/shutdown stress pass.
func TestEngineOverload(t *testing.T) {
	eng := NewEngine(1, 1, WithMaxQueue(0))
	defer eng.Close()
	s, err := eng.acquire(context.Background(), obs.SemLocal)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = eng.Local(context.Background(), fixtures.Fig1(), LocalRequest{Theta: 0.3})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated engine returned %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("overload rejection took %v; it must fail fast, not park", elapsed)
	}
	eng.release(s)
	// Capacity back: the engine serves again.
	if _, err := eng.Local(context.Background(), fixtures.Fig1(), LocalRequest{Theta: 0.3}); err != nil {
		t.Fatalf("engine unusable after overload rejection: %v", err)
	}
}

// TestEngineOverloadQueueDepth: WithMaxQueue(n) admits exactly n waiters —
// waiter n+1 is rejected while the first n keep their place and are served
// once the shard frees up.
func TestEngineOverloadQueueDepth(t *testing.T) {
	eng := NewEngine(1, 1, WithMaxQueue(1))
	defer eng.Close()
	s, err := eng.acquire(context.Background(), obs.SemLocal)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter is admitted and parks.
	waited := make(chan error, 1)
	go func() {
		_, err := eng.Local(context.Background(), fixtures.Fig1(), LocalRequest{Theta: 0.3})
		waited <- err
	}()
	// Poll until the waiter is counted, so the overflow request below is
	// deterministic about its queue position.
	for deadline := time.Now().Add(5 * time.Second); eng.waiters.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := eng.Local(context.Background(), fixtures.Fig1(), LocalRequest{Theta: 0.3}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-overflow request returned %v, want ErrOverloaded", err)
	}
	eng.release(s)
	if err := <-waited; err != nil {
		t.Fatalf("admitted waiter failed: %v", err)
	}
}

// TestEngineCloseIdempotent: Close twice (sequentially and concurrently) is
// a no-op the second time — no close-of-closed-channel panic — so serving
// shutdown paths can defer Close unconditionally.
func TestEngineCloseIdempotent(t *testing.T) {
	eng := NewEngine(2, 1)
	eng.Close()
	eng.Close() // must not panic

	eng = NewEngine(2, 1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Close()
		}()
	}
	wg.Wait()
}

// TestEngineConcurrentCloseStress: goroutines hammer a bounded engine with
// mixed requests while Close runs concurrently. Every outcome must be a
// served result or a typed rejection (ErrEngineClosed / ErrOverloaded), and
// Close must return with all shards reclaimed. This is the ci.sh
// overload/shutdown race-stress pass.
func TestEngineConcurrentCloseStress(t *testing.T) {
	pg := fixtures.Fig1()
	eng := NewEngine(2, 1, WithMaxQueue(2))
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*16)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				var err error
				switch i % 3 {
				case 0:
					_, err = eng.Local(context.Background(), pg, LocalRequest{Theta: 0.35})
				case 1:
					_, err = eng.Global(context.Background(), pg, NucleiRequest{K: 1, Theta: 0.35, Samples: 20, Seed: 1})
				default:
					_, err = eng.Weak(context.Background(), pg, NucleiRequest{K: 1, Theta: 0.35, Samples: 20, Seed: 1})
				}
				if err != nil {
					if !errors.Is(err, ErrEngineClosed) && !errors.Is(err, ErrOverloaded) {
						errc <- fmt.Errorf("goroutine %d iter %d: unexpected error %w", g, i, err)
					}
					if errors.Is(err, ErrEngineClosed) {
						return // engine gone; later requests can only repeat this
					}
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // let traffic build before closing under it
	eng.Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestEngineObserverEvents: a Metrics observer attached via WithObserver
// sees a consistent request ledger — admitted = started = finished per
// semantics for uncontended traffic — plus kernel progress (worlds sampled,
// peel rounds, candidates, pool rounds) and an overload rejection.
func TestEngineObserverEvents(t *testing.T) {
	pg := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04)))
	m := new(obs.Metrics)
	eng := NewEngine(1, 2, WithMaxQueue(0), WithObserver(m))
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Local(ctx, pg, LocalRequest{Theta: 0.3}); err != nil {
		t.Fatal(err)
	}
	req := NucleiRequest{K: 1, Theta: 0.001, Samples: 40, Seed: 1}
	if _, err := eng.Global(ctx, pg, req); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Weak(ctx, pg, req); err != nil {
		t.Fatal(err)
	}
	// One overload rejection for the ledger: a weak-semantics goroutine holds
	// the only shard while a local request arrives with the queue full.
	s, err := eng.acquire(ctx, obs.SemWeak)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Local(ctx, pg, LocalRequest{Theta: 0.3}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	eng.release(s)

	snap := m.Snapshot()
	for sem, want := range map[obs.Semantics]int64{obs.SemLocal: 1, obs.SemGlobal: 1, obs.SemWeak: 1} {
		r := snap.Requests[sem]
		if r.Finished != want || r.Failed != 0 {
			t.Errorf("%s ledger: finished=%d failed=%d, want %d/0", sem, r.Finished, r.Failed, want)
		}
		if r.Latency.Count != want {
			t.Errorf("%s latency samples = %d, want %d", sem, r.Latency.Count, want)
		}
		if r.QueueWait.Count < want {
			t.Errorf("%s queue-wait samples = %d, want at least %d", sem, r.QueueWait.Count, want)
		}
	}
	// The rejected local request was never admitted, only rejected.
	if r := snap.Requests[obs.SemLocal]; r.Rejected["overload"] != 1 || r.Admitted != 1 {
		t.Errorf("local admission: admitted=%d overloadRejects=%d, want 1/1", r.Admitted, r.Rejected["overload"])
	}
	if snap.Worlds != 2*40 || snap.WorldBatches != 2 {
		t.Errorf("worlds=%d batches=%d, want 80/2 (global+weak, 40 samples each)", snap.Worlds, snap.WorldBatches)
	}
	if snap.PeelRounds == 0 {
		t.Error("no peel rounds observed across three local decompositions")
	}
	if snap.Candidates == 0 {
		t.Error("no candidates observed by the global/weak pipelines")
	}
	if snap.PoolRounds == 0 {
		t.Error("no pool rounds observed")
	}
}

// TestEngineObserverResultsUnchanged: an observed engine returns
// byte-identical results to the package-level functions — observation is
// read-only.
func TestEngineObserverResultsUnchanged(t *testing.T) {
	m := new(obs.Metrics)
	eng := NewEngine(2, 2, WithMaxQueue(8), WithObserver(m))
	defer eng.Close()
	for _, c := range engineCases(t) {
		if err := checkEngineCase(context.Background(), eng, c); err != nil {
			t.Error(err)
		}
	}
	if m.Snapshot().PeelRounds == 0 {
		t.Error("observer saw no peel rounds")
	}
}
