// Package par provides the bounded worker-pool primitives shared by the
// parallel execution paths of the decomposition packages (graph enumeration,
// tail scoring, Monte-Carlo sampling).
//
// Pool is the one parallel-for. Every caller follows the same determinism
// discipline: work item i may only write state owned by i (a slice slot, a
// per-worker accumulator), so the result of a parallel run is byte-identical
// to the serial run regardless of worker count or scheduling. Callers that
// need per-worker scratch state use Pool.ForWorker and merge the per-worker
// results in worker order (or with a commutative reduction such as integer
// summation).
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// PanicError carries a panic recovered inside a pool round out to the round's
// caller: the original panic value plus the stack of the goroutine that
// panicked. Helper-goroutine panics would otherwise crash the whole process
// (nothing above a goroutine's top frame can recover them), so every worker
// recovers into a PanicError and the round re-panics it on the caller
// goroutine once the round has quiesced — a single recover at the serving
// boundary therefore sees worker and caller-side panics alike.
type PanicError struct {
	Value any    // the value originally passed to panic
	Stack []byte // stack of the panicking goroutine (runtime/debug.Stack)
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: pool worker panicked: %v", e.Value)
}

// Workers resolves a requested worker count: values < 1 mean "use all
// available parallelism" (runtime.GOMAXPROCS).
func Workers(requested int) int {
	if requested >= 1 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// chunkSize picks a grab size that amortizes the atomic counter without
// starving workers at the tail of the range.
func chunkSize(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		c = 1
	}
	return c
}

// Pool is a reusable team of worker goroutines for repeated parallel-for
// calls. The helper goroutines are spawned once and parked between calls —
// which matters on hot loops like triangle peeling, where a decomposition
// issues thousands of small batches and per-call goroutine spawns would
// dominate.
//
// A Pool is driven by one caller goroutine at a time (the caller itself acts
// as worker 0). Close releases the helper goroutines.
type Pool struct {
	workers int
	wake    []chan struct{} // one buffered slot per helper
	done    chan struct{}

	// ctx, when non-nil, is the cancellation source bound by Bind: workers
	// recheck it between chunk claims, so a cancelled round stops issuing
	// new chunks promptly. Published to helpers by the wake sends.
	ctx context.Context

	// tap, when non-nil, is invoked by the caller goroutine after every
	// For/ForWorker round — the engine's chunk-timing observability hook.
	tap Tap

	// panicked holds the first panic recovered by any worker of the current
	// round (nil otherwise). Workers stop claiming chunks once it is set, and
	// the round re-panics it on the caller goroutine after the helpers have
	// parked — so the pool stays structurally reusable after a panic, and
	// Close never leaks a helper.
	panicked atomic.Pointer[PanicError]

	// Per-round state, published to helpers by the wake sends.
	n     int
	chunk int
	next  atomic.Int64
	fn    func(worker, i int)
}

// NewPool creates a pool with the given worker count (resolved via Workers).
// A pool of 1 runs everything inline and spawns nothing.
func NewPool(requested int) *Pool {
	w := Workers(requested)
	p := &Pool{workers: w}
	if w <= 1 {
		return p
	}
	p.done = make(chan struct{}, w-1)
	p.wake = make([]chan struct{}, w-1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go func(worker int, wake chan struct{}) {
			for range wake {
				p.loop(worker)
				p.done <- struct{}{}
			}
		}(i+1, p.wake[i])
	}
	return p
}

// Workers returns the pool's resolved worker count.
func (p *Pool) Workers() int { return p.workers }

// serialCancelStride is how many indices the inline (single-worker) path of
// ForWorker processes between cancellation checks; a power of two so the
// boundary test is a mask.
const serialCancelStride = 256

// Bind attaches ctx as the pool's cancellation source for subsequent rounds:
// every worker rechecks the context between chunk claims (and the inline
// single-worker path every serialCancelStride indices), so a cancelled
// For/ForWorker stops issuing new work promptly and returns with part of the
// index range unprocessed. Callers observe the cancellation through Err and
// must discard the round's partial results — an uncancelled round is
// unaffected, so the determinism contract holds unchanged. Bind(nil)
// detaches. A pool is single-caller; Bind must not overlap a running round.
func (p *Pool) Bind(ctx context.Context) { p.ctx = ctx }

// Err reports the bound context's cancellation status (nil when no context
// is bound or it is still live). Workers return normally when cancelled
// mid-round, so callers check Err after a round — and at convenient
// checkpoints of serial sections between rounds — and abandon the partial
// results.
func (p *Pool) Err() error {
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

// Tap observes one completed parallel round: items is the round's index
// range and d its wall-clock duration as seen by the caller goroutine.
type Tap func(items int, d time.Duration)

// SetTap attaches (or, with nil, detaches) the pool's round tap. The tap is
// invoked synchronously by the caller goroutine after every For/ForWorker
// round with n > 0, so it needs no internal synchronization beyond what the
// tap itself does; a nil tap costs one branch per round. Like Bind, SetTap
// must not overlap a running round.
func (p *Pool) SetTap(t Tap) { p.tap = t }

// For runs fn(i) for every i in [0, n) on the pool's workers.
func (p *Pool) For(n int, fn func(i int)) {
	p.ForWorker(n, func(_, i int) { fn(i) })
}

// ForWorker runs fn(worker, i) for every i in [0, n), with worker ids in
// [0, Workers()); the calling goroutine is worker 0. Index-to-worker
// assignment is dynamic and not deterministic, so only per-index writes and
// commutative reductions preserve determinism.
//
// A panic in fn never crashes the process from a helper goroutine: the first
// panicking worker's value and stack are captured, remaining workers stop
// claiming chunks, and once the round has quiesced the panic is re-raised on
// the calling goroutine as a *PanicError (the inline single-worker path lets
// the panic propagate unwrapped — it is already on the caller). The pool
// itself stays structurally sound: subsequent rounds and Close work normally,
// though the panicked round's partial writes must be discarded.
func (p *Pool) ForWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if p.tap != nil {
		start := time.Now()
		p.forWorker(n, fn)
		p.tap(n, time.Since(start))
		return
	}
	p.forWorker(n, fn)
}

// forWorker is the tap-free round body of ForWorker.
func (p *Pool) forWorker(n int, fn func(worker, i int)) {
	if p.workers == 1 || n == 1 {
		if p.ctx == nil {
			for i := 0; i < n; i++ {
				fn(0, i)
			}
			return
		}
		for i := 0; i < n; i++ {
			if i&(serialCancelStride-1) == 0 && p.ctx.Err() != nil {
				return
			}
			fn(0, i)
		}
		return
	}
	p.n = n
	p.fn = fn
	p.chunk = chunkSize(n, p.workers)
	p.next.Store(0)
	for _, c := range p.wake {
		c <- struct{}{}
	}
	p.loop(0)
	for range p.wake {
		<-p.done
	}
	p.fn = nil
	if pe := p.panicked.Swap(nil); pe != nil {
		// Re-panic on the caller goroutine now that the round has fully
		// quiesced (helpers parked, done drained): the pool remains
		// structurally intact for reuse or Close, and the caller's recover
		// sees the worker's original panic value and stack.
		panic(pe)
	}
}

func (p *Pool) loop(worker int) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Value: r, Stack: debug.Stack()}
			}
			p.panicked.CompareAndSwap(nil, pe)
		}
	}()
	ctx := p.ctx
	for {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		if p.panicked.Load() != nil {
			return // another worker panicked; don't run more of a doomed round
		}
		lo := int(p.next.Add(int64(p.chunk))) - p.chunk
		if lo >= p.n {
			return
		}
		hi := lo + p.chunk
		if hi > p.n {
			hi = p.n
		}
		for i := lo; i < hi; i++ {
			p.fn(worker, i)
		}
	}
}

// Close releases the helper goroutines. The pool must not be used after.
func (p *Pool) Close() {
	for _, c := range p.wake {
		close(c)
	}
	p.wake = nil
}
