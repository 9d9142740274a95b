package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"probnucleus/internal/fault"
	"probnucleus/internal/fixtures"
	"probnucleus/internal/obs"
)

// waitHealthy polls the engine until every quarantined shard has been
// rebuilt and the full capacity is back on the free list (or the deadline
// expires). Rebuilds are asynchronous, so tests must wait for convergence
// before asserting on capacity.
func waitHealthy(t *testing.T, e *Engine) Health {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := e.Health()
		if h.Quarantined == h.Rebuilt && h.Free == h.Shards {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine did not converge to full capacity: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineQuarantineRebuild: a single injected panic must surface as
// ErrInternal carrying the injected value and a stack, quarantine the shard
// that ran it, rebuild a replacement asynchronously, and leave the engine
// fully serviceable — all observed through Health and the metrics counters.
func TestEngineQuarantineRebuild(t *testing.T) {
	pg := fixtures.Fig1()
	// Prepared off the engine, so the one injected panic hits the request.
	pre, err := Prepare(pg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := new(obs.Metrics)
	inj := fault.New(fault.Config{Seed: 1, Panic: 1, Limit: 1})
	eng := NewEngine(2, 2, WithMaxQueue(4), WithObserver(fault.Wrap(m, inj)))
	defer eng.Close()

	ctx := context.Background()
	_, err = eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("request under Panic:1 returned %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v is not an *InternalError", err)
	}
	if _, ok := ie.Value.(fault.Panic); !ok {
		t.Fatalf("InternalError.Value = %#v, want the injected fault.Panic", ie.Value)
	}
	if len(ie.Stack) == 0 {
		t.Fatalf("InternalError.Stack is empty")
	}

	h := waitHealthy(t, eng)
	if h.Quarantined != 1 || h.Rebuilt != 1 {
		t.Fatalf("health after one panic: %+v, want quarantined=1 rebuilt=1", h)
	}
	snap := m.Snapshot()
	if snap.Requests[obs.SemLocal].Panicked != 1 {
		t.Fatalf("metrics panicked = %d, want 1", snap.Requests[obs.SemLocal].Panicked)
	}
	if snap.ShardsQuarantined != 1 || snap.ShardsRebuilt != 1 {
		t.Fatalf("metrics quarantined/rebuilt = %d/%d, want 1/1",
			snap.ShardsQuarantined, snap.ShardsRebuilt)
	}

	// The injector is spent (Limit: 1): the rebuilt engine must serve
	// correct results again on both the fresh and the surviving shard.
	want, err := LocalDecompose(pg, 0.35, Options{Mode: ModeDP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35})
		if err != nil {
			t.Fatalf("request %d after rebuild: %v", i, err)
		}
		for j := range want.Nucleusness {
			if res.Nucleusness[j] != want.Nucleusness[j] {
				t.Fatalf("request %d after rebuild: nucleusness differs at %d", i, j)
			}
		}
	}
}

// TestEngineDoomedAdmission: a request that must queue while its remaining
// deadline is below the observed p50 latency is shed with ErrDoomed before
// taking a queue slot; requests with room to spare (or no deadline) queue
// normally, and the shed is counted under the doomed reject reason.
func TestEngineDoomedAdmission(t *testing.T) {
	pg := fixtures.Fig1()
	m := new(obs.Metrics)
	eng := NewEngine(1, 1, WithObserver(m))
	defer eng.Close()
	pre := mustPrepare(t, eng, pg)

	// Prime the latency ledger: 32 finished local requests at ~50ms put the
	// observed p50 in the [33.5ms, 67.1ms) bucket, well past the min-sample
	// gate.
	for i := 0; i < 32; i++ {
		m.RequestFinished(obs.SemLocal, 50*time.Millisecond, false)
	}

	// Hold the engine's only shard so every request below must queue.
	s, err := eng.acquire(context.Background(), obs.SemWeak)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	_, err = eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35})
	cancel()
	if !errors.Is(err, ErrDoomed) {
		t.Fatalf("10ms-deadline request against ~67ms p50 returned %v, want ErrDoomed", err)
	}
	if got := m.Snapshot().Requests[obs.SemLocal].Rejected["doomed"]; got != 1 {
		t.Fatalf("doomed rejections = %d, want 1", got)
	}

	// Weak semantics has no latency samples yet: the same tight deadline
	// must NOT be shed on an unobserved ledger (it expires waiting instead).
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	_, err = eng.WeakPrepared(ctx, pre, NucleiRequest{K: 1, Theta: 0.35, Samples: 50})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unprimed semantics returned %v, want DeadlineExceeded from queueing", err)
	}

	// A queued request with a generous deadline — and one with none — must
	// be served once the shard frees up.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35})
		done <- err
	}()
	// Give the goroutine time to enter the queue, then free the shard.
	time.Sleep(10 * time.Millisecond)
	eng.release(s)
	if err := <-done; err != nil {
		t.Fatalf("generous-deadline queued request failed: %v", err)
	}
	if _, err := eng.LocalPrepared(context.Background(), pre, LocalRequest{Theta: 0.35}); err != nil {
		t.Fatalf("deadline-free request failed: %v", err)
	}
}

// TestEngineChaos is the acceptance chaos suite: randomized injected panics,
// delays, and forced cancels across all three semantics and the prepare
// stage, under concurrent load (run under -race by scripts/ci.sh). The
// invariants: the process never crashes, callers only ever observe typed
// errors, injected panics surface as ErrInternal wrapping the injected
// value, and after the storm capacity converges back to Shards() with every
// shard distinct.
func TestEngineChaos(t *testing.T) {
	pg := fixtures.Fig1()
	pre, err := Prepare(pg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := new(obs.Metrics)
	inj := fault.New(fault.Config{
		Seed:     42,
		Panic:    0.02,
		Cancel:   0.02,
		Delay:    0.05,
		MaxDelay: 200 * time.Microsecond,
	})
	eng := NewEngine(3, 2, WithMaxQueue(8), WithObserver(fault.Wrap(m, inj)))

	const goroutines = 8
	const perG = 12
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				func() {
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					disarm := inj.Arm(cancel)
					defer disarm()
					var err error
					switch (g + i) % 4 {
					case 0:
						_, err = eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35})
					case 1:
						_, err = eng.GlobalPrepared(ctx, pre, NucleiRequest{K: 1, Theta: 0.35, Samples: 100, Seed: int64(i)})
					case 2:
						_, err = eng.WeakPrepared(ctx, pre, NucleiRequest{K: 1, Theta: 0.35, Samples: 100, Seed: int64(i)})
					default:
						_, err = eng.Prepare(ctx, pg)
					}
					errc <- err
				}()
			}
		}(g)
	}
	wg.Wait()
	close(errc)

	var internals, cancels, overloads, doomed, ok int
	for err := range errc {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrInternal):
			internals++
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Errorf("ErrInternal without *InternalError: %v", err)
			} else if _, isInjected := ie.Value.(fault.Panic); !isInjected {
				t.Errorf("panic value %#v is not the injected fault.Panic", ie.Value)
			}
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			cancels++
		case errors.Is(err, ErrOverloaded):
			overloads++
		case errors.Is(err, ErrDoomed):
			doomed++
		default:
			t.Errorf("untyped error escaped the engine: %v", err)
		}
	}
	t.Logf("chaos: %d ok, %d internal, %d cancelled, %d overloaded, %d doomed",
		ok, internals, cancels, overloads, doomed)
	if ok == 0 {
		t.Errorf("no request survived the chaos run; fault rates are too hot to prove recovery")
	}

	// Capacity must converge back to full strength...
	h := waitHealthy(t, eng)
	if h.Quarantined != h.Rebuilt {
		t.Fatalf("rebuilds did not converge: %+v", h)
	}
	// ...with Shards() distinct live shards on the free list.
	seen := make(map[*engineShard]bool)
	var drained []*engineShard
	for i := 0; i < eng.Shards(); i++ {
		select {
		case s := <-eng.free:
			if seen[s] {
				t.Fatalf("shard %p appears twice on the free list", s)
			}
			seen[s] = true
			drained = append(drained, s)
		case <-time.After(time.Second):
			t.Fatalf("free list held %d shards, want %d", len(seen), eng.Shards())
		}
	}
	for _, s := range drained {
		eng.release(s)
	}
	eng.Close()
}

// engineGoroutines counts live goroutines parked inside the worker-pool or
// shard-rebuild code paths — the frames Engine.Close must leave none of.
func engineGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "internal/par.") + strings.Count(stacks, "(*Engine).rebuild")
}

// waitNoEngineGoroutines polls for the helper/rebuild goroutines to unwind
// (pool Close only closes the wake channels; the parked helpers exit
// asynchronously).
func waitNoEngineGoroutines(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := engineGoroutines(); n == 0 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d engine goroutines alive after Close:\n%s",
				what, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineCloseLeaksNoGoroutines is the leak gate of the fault-tolerance
// layer: Close must reclaim every pool helper and rebuild goroutine — after
// plain traffic, after a quarantine rebuild, and when closing in the middle
// of a chaos storm.
func TestEngineCloseLeaksNoGoroutines(t *testing.T) {
	pg := fixtures.Fig1()
	pre, err := Prepare(pg, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("plain", func(t *testing.T) {
		eng := NewEngine(2, 4)
		if _, err := eng.Prepare(context.Background(), pg); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := eng.LocalPrepared(context.Background(), pre, LocalRequest{Theta: 0.35}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		waitNoEngineGoroutines(t, "plain traffic")
	})

	t.Run("after-rebuild", func(t *testing.T) {
		inj := fault.New(fault.Config{Seed: 9, Panic: 1, Limit: 1})
		eng := NewEngine(2, 4, WithObserver(fault.Wrap(obs.NopObserver{}, inj)))
		if _, err := eng.LocalPrepared(context.Background(), pre, LocalRequest{Theta: 0.35}); !errors.Is(err, ErrInternal) {
			t.Fatalf("got %v, want ErrInternal", err)
		}
		// Close without waiting for the rebuild: it must drain the
		// replacement shard too.
		eng.Close()
		waitNoEngineGoroutines(t, "close racing a rebuild")
	})

	t.Run("mid-chaos", func(t *testing.T) {
		inj := fault.New(fault.Config{Seed: 11, Panic: 0.05, Delay: 0.1, MaxDelay: 100 * time.Microsecond})
		eng := NewEngine(3, 2, WithMaxQueue(4), WithObserver(fault.Wrap(obs.NopObserver{}, inj)))
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					_, err := eng.LocalPrepared(ctx, pre, LocalRequest{Theta: 0.35})
					cancel()
					switch {
					case err == nil,
						errors.Is(err, ErrInternal),
						errors.Is(err, ErrOverloaded),
						errors.Is(err, ErrDoomed),
						errors.Is(err, ErrEngineClosed),
						errors.Is(err, context.Canceled),
						errors.Is(err, context.DeadlineExceeded):
					default:
						t.Errorf("untyped error mid-chaos: %v", err)
					}
				}
			}(g)
		}
		// Close while the storm is still raging; requests racing the close
		// must fail typed, never hang or crash.
		time.Sleep(5 * time.Millisecond)
		eng.Close()
		wg.Wait()
		waitNoEngineGoroutines(t, "close mid-chaos")
	})
}
