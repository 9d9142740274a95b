package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"probnucleus/internal/mc"
	"probnucleus/internal/obs"
	"probnucleus/internal/par"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

// LocalRequest parameterizes Engine.LocalPrepared: one ℓ-NuDecomp query —
// the fields of Options a caller chooses per query, without the worker
// count, which is the engine's.
type LocalRequest struct {
	// Theta is the probability threshold θ of the decomposition.
	Theta float64
	// Mode selects exact DP or approximate AP support evaluation.
	Mode Mode
	// Hyper holds the AP selection hyperparameters; zero value means
	// pbd.DefaultHyper.
	Hyper pbd.Hyper
	// MethodCounts, when non-nil, accumulates per-method query tallies (AP
	// instrumentation). The map is written by the serving shard, so share one
	// map across concurrent requests only with external synchronization.
	MethodCounts map[pbd.Method]int
}

// Validate reports whether the request is well-formed without running it;
// Engine.LocalPrepared calls it first, and failures match the package's
// sentinel errors via errors.Is.
func (r LocalRequest) Validate() error {
	if !(r.Theta > 0 && r.Theta <= 1) {
		return errTheta(r.Theta)
	}
	return nil
}

// NucleiRequest parameterizes Engine.GlobalPrepared and Engine.WeakPrepared:
// one g- or w-NuDecomp query. It unifies the (k, θ) call arguments and the
// MCOptions sampling knobs of the package-level functions into a single
// validated request struct, the one every g- and w-NuDecomp call runs from.
type NucleiRequest struct {
	// K is the nucleus level.
	K int
	// Theta is the probability threshold θ.
	Theta float64
	// Eps and Delta size the Monte-Carlo sample by the Hoeffding bound
	// ⌈ln(2/δ)/(2ε²)⌉ when Samples is zero; each defaults to 0.1 when zero.
	Eps   float64
	Delta float64
	// Samples, when positive, fixes the possible-world count directly.
	// Either way the count may not exceed math.MaxInt32.
	Samples int
	// Seed roots the world PRNG streams; estimates depend only on it, never
	// on the shard's worker count.
	Seed int64
	// Window, when positive and smaller than the sample count, streams the
	// shared world-mask bank through fixed-size windows of that many worlds,
	// bounding the shard's peak bank memory at Window×⌈|E∪|/64⌉ words. The
	// results are byte-identical to the full-bank default (see
	// MCOptions.Window).
	Window int
	// MemBudget, when positive and Window is zero, derives the window from a
	// peak world-bank byte budget instead of a fixed world count — the shard
	// streams through ⌊MemBudget/(⌈|E∪|/64⌉×8)⌋ worlds at a time (at least
	// one), keeping the bank's peak allocation within the budget whenever a
	// single world's mask row fits. Results are byte-identical either way
	// (see MCOptions.MemBudget).
	MemBudget int64
	// Local optionally supplies a precomputed exact local decomposition at
	// a θ no higher than Theta to prune the search space (a lower θ only
	// widens the candidate space); when nil one at Theta is computed per
	// request. Validate refuses a Local above Theta with ErrLocalTheta.
	// Requests that share a Local share its candidate plans (see
	// MCOptions.Local), as registry queries share the cached result.
	Local *LocalResult
}

// Validate reports whether the request is well-formed without running it;
// Engine.GlobalPrepared and Engine.WeakPrepared call it first, and failures
// match the package's sentinel errors via errors.Is.
func (r NucleiRequest) Validate() error {
	// k first: the pinned validation order reports a negative k even when θ
	// is also out of range (see TestNegativeKRejectedBeforeWork).
	if r.K < 0 {
		return errNegativeK(r.K)
	}
	if !(r.Theta > 0 && r.Theta <= 1) {
		return errTheta(r.Theta)
	}
	if r.Local != nil && r.Local.Theta > r.Theta {
		return fmt.Errorf("core: local theta = %v above theta = %v: %w", r.Local.Theta, r.Theta, ErrLocalTheta)
	}
	return r.validateSampleSpec()
}

// maxSamples bounds the world count a request may resolve to: per-triangle
// counts, the θ threshold and window offsets are int32.
const maxSamples = math.MaxInt32

// validateSampleSpec checks the Monte-Carlo sample specification: Samples
// must lie in [0, maxSamples], Window and MemBudget must be non-negative,
// and when Samples is zero each of Eps/Delta must be either zero (defaulted
// to 0.1) or inside (0,1] — the domain of the Hoeffding bound — and the
// bound itself may not exceed maxSamples. It is the error-returning
// counterpart of the panic in mc.SampleSize.
func (r NucleiRequest) validateSampleSpec() error {
	if r.Samples < 0 || r.Samples > maxSamples {
		return fmt.Errorf("core: samples = %d outside [0, %d]: %w", r.Samples, maxSamples, ErrBadSampleSpec)
	}
	if r.Window < 0 {
		return fmt.Errorf("core: window = %d: %w", r.Window, ErrBadSampleSpec)
	}
	if r.MemBudget < 0 {
		return fmt.Errorf("core: membudget = %d: %w", r.MemBudget, ErrBadSampleSpec)
	}
	if r.Samples > 0 {
		return nil
	}
	if r.Eps != 0 && !(r.Eps > 0 && r.Eps <= 1) {
		return fmt.Errorf("core: eps = %v: %w", r.Eps, ErrBadSampleSpec)
	}
	if r.Delta != 0 && !(r.Delta > 0 && r.Delta <= 1) {
		return fmt.Errorf("core: delta = %v: %w", r.Delta, ErrBadSampleSpec)
	}
	// The bound in floating point, before mc.SampleSize converts it to an
	// int: a count past the int range would not convert to a usable value.
	eps, delta := r.epsDelta()
	if n := math.Log(2/delta) / (2 * eps * eps); n > maxSamples {
		return fmt.Errorf("core: eps = %v, delta = %v need %.3g samples, more than %d: %w",
			eps, delta, math.Ceil(n), maxSamples, ErrBadSampleSpec)
	}
	return nil
}

// epsDelta returns the request's (ε,δ) with the 0.1 defaults applied.
func (r NucleiRequest) epsDelta() (eps, delta float64) {
	eps, delta = r.Eps, r.Delta
	if eps == 0 {
		eps = 0.1
	}
	if delta == 0 {
		delta = 0.1
	}
	return eps, delta
}

// sampleCount resolves the number of sampled worlds: Samples when positive,
// otherwise the Hoeffding bound of Lemma 4 (mc.SampleSize).
func (r NucleiRequest) sampleCount() int {
	if r.Samples > 0 {
		return r.Samples
	}
	return mc.SampleSize(r.epsDelta())
}

// windowSize resolves the world window the shared bank streams through for a
// run of n worlds over unionEdges union edges: an explicit Window when
// positive, otherwise a window derived from the MemBudget byte budget (one
// world's mask row is ⌈unionEdges/64⌉×8 bytes; the window is however many
// rows the budget holds, but never fewer than one), otherwise — and whenever
// the resolved window exceeds n — the full bank in one window.
func (r NucleiRequest) windowSize(n, unionEdges int) int {
	window := r.Window
	if window == 0 && r.MemBudget > 0 {
		words := int64(unionEdges+63) / 64
		if words < 1 {
			words = 1
		}
		w := r.MemBudget / (words * 8)
		window = 1
		if w > int64(n) {
			window = n
		} else if w > 1 {
			window = int(w)
		}
	}
	if window <= 0 || window > n {
		window = n
	}
	return window
}

// EngineOption configures optional Engine behavior at construction
// (admission bounds, observability); pass them to NewEngine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	maxQueue int // requests allowed to wait for a shard; < 0 = unbounded
	obs      obs.Observer
}

// WithMaxQueue bounds admission: at most n requests may wait for a shard at
// once, and a request arriving beyond that fails fast with ErrOverloaded
// instead of parking unboundedly on the free list. n = 0 admits only
// requests a free shard can serve immediately; negative n (and engines
// built without the option) leave admission unbounded.
func WithMaxQueue(n int) EngineOption {
	return func(c *engineConfig) { c.maxQueue = n }
}

// WithObserver attaches o as the engine's observer: request lifecycle events
// (admitted/rejected/started/finished per semantics, with shard-acquire
// waits and total latencies), shared Monte-Carlo world batches, peel rounds,
// candidate validations, and worker-pool round timings. o must be safe for
// concurrent use; obs.Metrics is the batteries-included implementation. A
// nil observer (the default) adds zero allocations and a single predictable
// branch per hook site to the decomposition paths.
func WithObserver(o obs.Observer) EngineOption {
	return func(c *engineConfig) { c.obs = o }
}

// Engine is the concurrent-safe serving surface over the three decomposition
// semantics: a fixed set of shards — each owning a persistent worker pool,
// the peeling/validation scratch that grows inside it, and a reusable
// world-mask bank (mc.Bank, re-grown but never re-allocated across calls at
// the same (ε,δ)) — dispatched to callers through a free list. Every query
// runs from a prepared artifact: Prepare enumerates a graph's triangle index
// once, and LocalPrepared, GlobalPrepared and WeakPrepared answer from it.
// N goroutines may issue mixed requests simultaneously; at most Shards() of
// them run at once while the rest wait on the free list or their contexts,
// and WithMaxQueue bounds how many may wait.
//
// Results are byte-identical to the package-level functions on the
// artifact's graph for every shard and worker count. Cancellation is
// checked between worker-pool chunks and Monte-Carlo world batches: a
// cancelled call returns ctx.Err() promptly and its shard goes straight back
// on the free list, reusable.
//
// The engine also survives its own bugs: a panic anywhere in a request —
// kernel serial sections, worker-pool rounds, observer hooks — is contained
// and surfaced as ErrInternal instead of crashing the process, and the shard
// that ran the panicking request is quarantined (its pool, bank, and scratch
// discarded) while a fresh replacement is rebuilt asynchronously, so
// corrupted state never leaks into a later request and capacity self-heals.
type Engine struct {
	free chan *engineShard
	// nshards/workersPer record the construction geometry; shards are
	// rebuilt from them after a quarantine.
	nshards    int
	workersPer int
	// closed is closed by Close so acquirers blocked on the free list fail
	// with ErrEngineClosed instead of waiting forever for shards that will
	// never return.
	closed    chan struct{}
	closeOnce sync.Once

	// obs receives lifecycle and kernel progress events; nil when the engine
	// was built without WithObserver.
	obs obs.Observer
	// latency, when the observer can answer median-latency probes
	// (obs.Metrics does), feeds deadline-aware admission; nil disables it.
	latency latencySource
	// maxQueue bounds how many requests may wait for a shard (< 0 =
	// unbounded); waiters tracks how many currently do.
	maxQueue int
	waiters  atomic.Int64
	// quarantined/rebuilt count shard-supervision events (Health): their
	// difference is the number of shard rebuilds still in flight.
	quarantined atomic.Int64
	rebuilt     atomic.Int64
}

// latencySource is the capability deadline-aware admission needs from the
// observer: the observed median service latency per semantics and the sample
// count behind it. *obs.Metrics implements it, and wrapping observers (the
// fault-injection harness) forward it.
type latencySource interface {
	LatencyP50(s obs.Semantics) (time.Duration, int64)
}

// engineShard is one unit of serving capacity: a parked worker team plus the
// reusable per-shard state of a decomposition call. A shard serves one
// request at a time; the free list enforces that.
type engineShard struct {
	pool *par.Pool
	bank mc.Bank
	// local is the working memory of the shard's last local peel, kept for
	// as long as the shard goes on serving local requests (see dropLocal).
	local localScratch
	// weak and global are the working memory of the shard's last w- and
	// g-NuDecomp calls, kept until the shard serves a local peel or a prepare
	// (see dropMC).
	weak   weakScratch
	global globalEstimator
}

// run is what a shard hands one kernel call besides its request: the
// shard's worker pool and world-mask bank, the engine's observer (nil when
// off), the prepare-stage artifact the call runs from, whose graph every
// kernel reads, the local-peel working memory to reuse (nil gives the peel
// fresh memory), and the working memory the weak and global kernels reuse.
type run struct {
	pool   *par.Pool
	bank   *mc.Bank
	obs    obs.Observer
	pre    *Prepared
	local  *localScratch
	weak   *weakScratch
	global *globalEstimator
}

// localResult resolves the pruning local decomposition the global and weak
// kernels run from: the request's own when it brings one, otherwise an
// exact DP decomposition at the request's θ of the run's artifact.
func (r *run) localResult(req NucleiRequest) (*LocalResult, error) {
	if req.Local != nil {
		return req.Local, nil
	}
	return localDecompose(r, LocalRequest{Theta: req.Theta, Mode: ModeDP})
}

// dropLocal releases the shard's local-peel working memory. Every request
// that is not a local peel calls it, so a shard serving a run of local
// queries reuses one set of arenas, while one serving mixed traffic holds
// them no longer than until its next other request — its peak is then the
// larger of a peel's memory and a Monte-Carlo kernel's, not their sum.
func (s *engineShard) dropLocal() { s.local = localScratch{} }

// dropMC releases the shard's weak and global working memory. A local peel
// or a prepare calls it, as every other request calls dropLocal, so a shard
// never holds a peel's and a Monte-Carlo kernel's scratch at once; the
// world-mask bank stays, as the global and weak kernels share it.
func (s *engineShard) dropMC() {
	s.weak = weakScratch{}
	s.global = globalEstimator{}
}

// NewEngine creates an engine with the given number of shards (values < 1
// mean one) of workersPerShard workers each (0 = all cores, 1 = serial).
// Shards bound request concurrency and workersPerShard bounds per-request
// parallelism; serving setups typically pick shards × workersPerShard ≈
// GOMAXPROCS — many small shards for throughput under heavy concurrent
// traffic, few wide shards for the latency of individual big queries.
// Options add bounded admission (WithMaxQueue) and observability
// (WithObserver); without them admission is unbounded and observing is off.
func NewEngine(shards, workersPerShard int, opts ...EngineOption) *Engine {
	if shards < 1 {
		shards = 1
	}
	cfg := engineConfig{maxQueue: -1}
	for _, opt := range opts {
		opt(&cfg)
	}
	e := &Engine{
		free:       make(chan *engineShard, shards),
		nshards:    shards,
		workersPer: workersPerShard,
		closed:     make(chan struct{}),
		obs:        cfg.obs,
		maxQueue:   cfg.maxQueue,
	}
	if src, ok := cfg.obs.(latencySource); ok {
		e.latency = src
	}
	for i := 0; i < shards; i++ {
		e.free <- e.newShard()
	}
	return e
}

// newShard builds one unit of serving capacity wired to the engine's
// observer — used at construction and to replace quarantined shards.
func (e *Engine) newShard() *engineShard {
	s := &engineShard{pool: par.NewPool(e.workersPer)}
	if e.obs != nil {
		s.pool.SetTap(e.obs.PoolRound)
		s.bank.Tap = e.obs.WorldBatch
	}
	return s
}

// Shards returns the number of shards — the maximum number of requests the
// engine serves simultaneously.
func (e *Engine) Shards() int { return e.nshards }

// Workers returns the per-shard worker count.
func (e *Engine) Workers() int { return par.Workers(e.workersPer) }

// Health is a point-in-time view of the engine's serving capacity, shaped
// for readiness endpoints (the /healthz handler of examples/engine-server).
type Health struct {
	// Shards is the total serving capacity; Free counts shards currently
	// idle on the free list (a racy snapshot: in-flight requests and
	// rebuilds move shards concurrently).
	Shards int `json:"shards"`
	Free   int `json:"freeShards"`
	// Workers is the per-shard worker count.
	Workers int `json:"workersPerShard"`
	// Queued counts requests waiting for a shard right now, against the
	// admission bound MaxQueue (-1 = unbounded).
	Queued   int64 `json:"queued"`
	MaxQueue int   `json:"maxQueue"`
	// Quarantined and Rebuilt count shard-supervision events since the
	// engine was built; Quarantined - Rebuilt rebuilds are still in flight.
	Quarantined int64 `json:"quarantined"`
	Rebuilt     int64 `json:"rebuilt"`
	// Closed reports whether Close has begun; a closed engine rejects all
	// traffic with ErrEngineClosed.
	Closed bool `json:"closed"`
}

// Health snapshots the engine's capacity and supervision counters. It is
// safe to call concurrently with traffic and after Close.
func (e *Engine) Health() Health {
	h := Health{
		Shards:      e.nshards,
		Free:        len(e.free),
		Workers:     e.Workers(),
		Queued:      e.waiters.Load(),
		MaxQueue:    e.maxQueue,
		Quarantined: e.quarantined.Load(),
		Rebuilt:     e.rebuilt.Load(),
	}
	select {
	case <-e.closed:
		h.Closed = true
	default:
	}
	return h
}

// Close waits for in-flight requests to finish, then releases every shard's
// worker team. Requests still waiting for a shard fail with ErrEngineClosed
// (a request that wins the race for a releasing shard is still served).
// Close is idempotent: concurrent and repeated calls are no-ops that wait
// for the first close to finish. A close racing a quarantine rebuild waits
// for the replacement shard and reclaims it like any other, so no worker
// goroutine outlives Close. The engine must not be used afterwards.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.closed)
		for i := 0; i < e.nshards; i++ {
			s := <-e.free
			s.pool.Close()
		}
	})
}

// acquire checks out a free shard bound to ctx, observing the request's
// admission lifecycle for sem. It fails fast with ErrOverloaded when no
// shard is free and the waiting queue is at its admission bound, with
// ctx.Err() when the context is cancelled — its deadline is honored while
// queued — or with ErrEngineClosed when the engine is closed before a shard
// frees up.
func (e *Engine) acquire(ctx context.Context, sem obs.Semantics) (*engineShard, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var s *engineShard
	select {
	case s = <-e.free:
		if e.obs != nil {
			e.obs.RequestAdmitted(sem)
			e.obs.RequestStarted(sem, 0)
		}
	default:
		// No shard free: the request must queue. Deadline-aware shedding
		// first — a request that cannot finish inside its deadline anyway
		// should not take a queue slot from one that can.
		if err := e.shedDoomed(ctx, sem); err != nil {
			return nil, err
		}
		// Admission bound next — beyond maxQueue waiters the engine is
		// overloaded and the request fails fast rather than parking
		// unboundedly.
		if e.maxQueue >= 0 && e.waiters.Add(1) > int64(e.maxQueue) {
			e.waiters.Add(-1)
			if e.obs != nil {
				e.obs.RequestRejected(sem, obs.RejectOverload)
			}
			return nil, fmt.Errorf("core: %d shards busy, %d waiting: %w",
				e.nshards, e.maxQueue, ErrOverloaded)
		}
		if e.maxQueue < 0 {
			e.waiters.Add(1)
		}
		var wait time.Time
		if e.obs != nil {
			e.obs.RequestAdmitted(sem)
			wait = time.Now()
		}
		select {
		case s = <-e.free:
			e.waiters.Add(-1)
			if e.obs != nil {
				e.obs.RequestStarted(sem, time.Since(wait))
			}
		case <-ctx.Done():
			e.waiters.Add(-1)
			if e.obs != nil {
				e.obs.RequestRejected(sem, obs.RejectExpired)
			}
			return nil, ctx.Err()
		case <-e.closed:
			e.waiters.Add(-1)
			if e.obs != nil {
				e.obs.RequestRejected(sem, obs.RejectClosed)
			}
			return nil, ErrEngineClosed
		}
	}
	s.pool.Bind(ctx)
	return s, nil
}

// doomedShedMinSamples is how many finished requests of a semantics the
// engine must have observed before deadline-aware admission trusts the
// median latency enough to shed queued requests against it.
const doomedShedMinSamples = 16

// shedDoomed rejects a request that would have to queue although its
// remaining deadline is below the observed median service latency for its
// semantics — it would almost certainly expire mid-run, wasting the shard
// it eventually got. Only engines whose observer answers latency probes
// (obs.Metrics) shed, and only once enough requests have been observed.
func (e *Engine) shedDoomed(ctx context.Context, sem obs.Semantics) error {
	if e.latency == nil {
		return nil
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	p50, n := e.latency.LatencyP50(sem)
	if n < doomedShedMinSamples || p50 <= 0 {
		return nil
	}
	if remaining := time.Until(deadline); remaining < p50 {
		if e.obs != nil {
			e.obs.RequestRejected(sem, obs.RejectDoomed)
		}
		return fmt.Errorf("core: %v remaining before the deadline, observed p50 %s latency %v: %w",
			remaining, sem, p50, ErrDoomed)
	}
	return nil
}

// release unbinds the shard's context and returns it to the free list.
func (e *Engine) release(s *engineShard) {
	s.pool.Bind(nil)
	e.free <- s
}

// serve runs one request for sem on a free shard (see acquire) and reports
// it to the observer. A normal return (including a cancellation error)
// releases the shard for reuse, while a panic — from the kernel's serial
// sections, a worker-pool round (surfacing as *par.PanicError), or an
// observer hook — quarantines the shard instead of returning its
// possibly-corrupted scratch to the free list, and comes back as an
// *InternalError matching ErrInternal with a zero result. The process never
// crashes, and a poisoned shard never serves a second request.
func serve[T any](e *Engine, ctx context.Context, sem obs.Semantics, body func(*engineShard) (T, error)) (out T, err error) {
	var start time.Time
	if e.obs != nil { // time.Now stays off the path of unobserved engines
		start = time.Now()
	}
	s, err := e.acquire(ctx, sem)
	if err != nil {
		return out, err
	}
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out, err = zero, newInternalError(r)
			if e.obs != nil {
				e.obs.RequestPanicked(sem)
			}
			e.quarantine(s)
		} else {
			e.release(s)
		}
		if e.obs != nil {
			e.obs.RequestFinished(sem, time.Since(start), err != nil)
		}
	}()
	return body(s)
}

// quarantine pulls a shard whose request panicked out of service — its
// pool, world-mask bank, and grown scratch are suspect — and starts an
// asynchronous rebuild so serving capacity self-heals.
func (e *Engine) quarantine(s *engineShard) {
	e.quarantined.Add(1)
	if e.obs != nil {
		e.obs.ShardQuarantined()
	}
	go e.rebuild(s)
}

// rebuild runs on its own goroutine per quarantined shard: it discards the
// old shard entirely (the pool is structurally quiescent after the
// round-level recover, so closing it releases its helpers without racing
// the panicked round) and returns a fresh replacement to the free list.
// Engine.Close drains the replacement like any other shard, so a close
// racing a rebuild still reclaims every worker goroutine.
func (e *Engine) rebuild(old *engineShard) {
	old.pool.Bind(nil)
	old.pool.Close()
	s := e.newShard()
	e.rebuilt.Add(1)
	if e.obs != nil {
		e.obs.ShardRebuilt()
	}
	e.free <- s
}

// Prepare builds the read-only prepare-stage artifact for pg on a free
// shard: the triangle index and 4-clique completion lists every query needs,
// enumerated once. The returned Prepared is safe to share across concurrent
// requests and shards; every query of the graph runs from it (hand it to
// the *Prepared methods, or register the graph in a registry), so repeated
// queries skip enumeration entirely. A cancelled ctx returns ctx.Err(), and
// a panicking enumeration returns ErrInternal while its shard is
// quarantined and rebuilt.
func (e *Engine) Prepare(ctx context.Context, pg *probgraph.Graph) (*Prepared, error) {
	return serve(e, ctx, obs.SemPrepare, func(s *engineShard) (*Prepared, error) {
		s.dropLocal()
		s.dropMC()
		return newPrepared(pg, s.pool, e.obs)
	})
}

// LocalPrepared answers one ℓ-NuDecomp request from a prepared artifact on
// a free shard. The result is byte-identical to LocalDecompose on the
// artifact's graph at the same θ/Mode/Hyper; a cancelled ctx makes it
// return ctx.Err() instead, and a panicking decomposition returns
// ErrInternal while its shard is quarantined and rebuilt.
func (e *Engine) LocalPrepared(ctx context.Context, pre *Prepared, req LocalRequest) (*LocalResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return serve(e, ctx, obs.SemLocal, func(s *engineShard) (*LocalResult, error) {
		s.dropMC()
		return localDecompose(&run{pool: s.pool, bank: &s.bank, obs: e.obs, pre: pre, local: &s.local}, req)
	})
}

// GlobalPrepared answers one g-NuDecomp request from a prepared artifact on
// a free shard, sampling its possible worlds from the artifact's graph into
// the shard's reusable mask bank. The internal pruning decomposition runs
// from the artifact's index; a caller-supplied req.Local takes precedence
// over it. The result is byte-identical to GlobalNuclei on the artifact's
// graph with the same parameters; a cancelled ctx makes it return ctx.Err()
// instead, and a panicking decomposition returns ErrInternal while its shard
// is quarantined and rebuilt.
func (e *Engine) GlobalPrepared(ctx context.Context, pre *Prepared, req NucleiRequest) ([]ProbNucleus, error) {
	return e.nuclei(ctx, pre, req, obs.SemGlobal)
}

// WeakPrepared answers one w-NuDecomp request from a prepared artifact; see
// GlobalPrepared. The result is byte-identical to WeaklyGlobalNuclei on the
// artifact's graph with the same parameters.
func (e *Engine) WeakPrepared(ctx context.Context, pre *Prepared, req NucleiRequest) ([]ProbNucleus, error) {
	return e.nuclei(ctx, pre, req, obs.SemWeak)
}

func (e *Engine) nuclei(ctx context.Context, pre *Prepared, req NucleiRequest, sem obs.Semantics) ([]ProbNucleus, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	kernel := globalNuclei
	if sem == obs.SemWeak {
		kernel = weaklyGlobalNuclei
	}
	return serve(e, ctx, sem, func(s *engineShard) ([]ProbNucleus, error) {
		s.dropLocal()
		return kernel(&run{pool: s.pool, bank: &s.bank, obs: e.obs, pre: pre, weak: &s.weak, global: &s.global}, req)
	})
}

// oneShot is the body of the package-level LocalDecompose, GlobalNuclei and
// WeaklyGlobalNuclei: it validates req first, so a malformed request starts
// no worker team and builds no index, then answers it with query on a
// one-shot one-shard engine of the given worker count. The artifact it runs
// from is the one local was decomposed on when the request brings a local
// result, and one prepared from pg otherwise.
func oneShot[Req interface{ Validate() error }, Res any](pg *probgraph.Graph, workers int, req Req, local *LocalResult,
	query func(*Engine, context.Context, *Prepared, Req) (Res, error)) (Res, error) {
	var zero Res
	if err := req.Validate(); err != nil {
		return zero, err
	}
	e := NewEngine(1, workers)
	defer e.Close()
	ctx := context.Background()
	var pre *Prepared
	if local != nil {
		pre = local.prepared()
	} else {
		var err error
		if pre, err = e.Prepare(ctx, pg); err != nil {
			return zero, err
		}
	}
	return query(e, ctx, pre, req)
}
