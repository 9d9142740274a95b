// Package obs provides the serving tier's observability primitives:
// allocation-free per-stage counters, exponential latency/queue-wait
// histograms, and the Observer hook surface the Engine threads through the
// decomposition kernels.
//
// The contract mirrors the engine's arena discipline: observing an event
// never allocates — Metrics is a fixed block of atomics — and a nil Observer
// costs a single branch at every hook site, so the steady-state
// decomposition paths are untouched when observability is off.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Semantics identifies which decomposition semantics a request asked for.
type Semantics uint8

const (
	// SemLocal is an ℓ-NuDecomp request (Engine.Local).
	SemLocal Semantics = iota
	// SemGlobal is a g-NuDecomp request (Engine.Global).
	SemGlobal
	// SemWeak is a w-NuDecomp request (Engine.Weak).
	SemWeak
	// SemPrepare is an index-preparation request (Engine.Prepare): triangle
	// enumeration and 4-clique completion without a decomposition.
	SemPrepare

	// NumSemantics is the number of request semantics.
	NumSemantics
)

// String returns the lower-case short name used in metrics output.
func (s Semantics) String() string {
	switch s {
	case SemLocal:
		return "local"
	case SemGlobal:
		return "global"
	case SemWeak:
		return "weak"
	case SemPrepare:
		return "prepare"
	}
	return "unknown"
}

// Reject classifies why a request failed to obtain a shard.
type Reject uint8

const (
	// RejectOverload: the engine's admission bound was full, so the request
	// failed fast instead of parking on the free list (ErrOverloaded).
	RejectOverload Reject = iota
	// RejectClosed: the engine was closed while the request waited
	// (ErrEngineClosed).
	RejectClosed
	// RejectExpired: the request's context was cancelled or its deadline
	// passed while it waited for a shard.
	RejectExpired
	// RejectDoomed: deadline-aware admission shed the request before it
	// queued — every shard was busy and its remaining deadline was below the
	// observed median service latency for its semantics (ErrDoomed).
	RejectDoomed

	// NumRejects is the number of rejection reasons.
	NumRejects
)

// String returns the lower-case reason name used in metrics output.
func (r Reject) String() string {
	switch r {
	case RejectOverload:
		return "overload"
	case RejectClosed:
		return "closed"
	case RejectExpired:
		return "expired"
	case RejectDoomed:
		return "doomed"
	}
	return "unknown"
}

// Observer receives the engine's lifecycle and kernel progress events. All
// methods must be safe for concurrent use (shards call them from many
// goroutines) and should be cheap — they sit on serving hot paths, gated
// only by a nil check. Embed NopObserver to implement a subset.
//
// Per request the event order is: RequestAdmitted, then either
// RequestStarted (a shard was acquired; queueWait is the free-list wait) or
// RequestRejected (no shard: overload bound hit, engine closed, or context
// expired while waiting), and after a started request runs,
// RequestFinished. Kernel progress events — WorldBatch for each shared
// Monte-Carlo bank draw, PeelRound per peeling sub-round, Candidate per
// enumerated global/weak candidate, PoolRound per worker-pool parallel
// round — arrive between Started and Finished of the request that caused
// them.
type Observer interface {
	// RequestAdmitted: the request passed validation and the admission bound
	// and will run as soon as a shard frees up.
	RequestAdmitted(s Semantics)
	// RequestRejected: the request did not obtain a shard, for the given
	// reason. Overload rejections are counted without a prior Admitted.
	RequestRejected(s Semantics, r Reject)
	// RequestStarted: a shard was acquired after waiting queueWait on the
	// free list (0 when a shard was free immediately).
	RequestStarted(s Semantics, queueWait time.Duration)
	// RequestFinished: the decomposition returned after total wall-clock time
	// (including the queue wait); failed reports a non-nil error, which for a
	// started request means cancellation mid-run or a contained panic.
	RequestFinished(s Semantics, total time.Duration, failed bool)
	// RequestPanicked: the request's decomposition panicked; the engine
	// contained it (the caller sees ErrInternal, never a crash) and will
	// quarantine the shard that ran it. Fires between Started and Finished.
	RequestPanicked(s Semantics)
	// ShardQuarantined: a shard was pulled from service after a panic instead
	// of returning to the free list; a rebuild is in flight.
	ShardQuarantined()
	// ShardRebuilt: a quarantined shard's fresh replacement is about to
	// return to the free list, restoring serving capacity.
	ShardRebuilt()
	// WorldBatch: one shared Monte-Carlo world bank of `worlds` possible
	// worlds × `words` mask words each was drawn.
	WorldBatch(worlds, words int)
	// PeelRound: one sub-round of the level-synchronous local peel fixed
	// the nucleusness of a batch of triangles and re-scored `affected`
	// triangles that shared cliques with them.
	PeelRound(affected int)
	// Candidate: the global/weak pipeline admitted one distinct candidate of
	// `tris` triangles, before any θ-prune or world scan: g-NuDecomp reports
	// each deduplicated closure as it is enumerated, w-NuDecomp each
	// candidate's seed on the first window.
	Candidate(tris int)
	// PoolRound: one worker-pool parallel round processed `items` work items
	// in wall-clock time d (the internal/par chunk-timing tap).
	PoolRound(items int, d time.Duration)
	// IndexBuilt: a triangle index of `tris` triangles was enumerated from
	// scratch — the dominant fixed cost of a cold query. Requests served from
	// a Prepared artifact never fire this; a registry differential can
	// therefore assert "zero rebuilds" by watching the counter stand still.
	IndexBuilt(tris int)
	// CacheHit: a registry lookup was served from the keyed result cache.
	CacheHit()
	// CacheMiss: a registry lookup found no cached result and computed.
	CacheMiss()
	// CacheEvict: the registry's LRU discarded a cached result, for capacity
	// or because its graph was replaced or deleted.
	CacheEvict()
	// CacheCoalesce: a registry lookup joined an identical in-flight compute
	// instead of duplicating it (singleflight).
	CacheCoalesce()
	// ArtifactSaved: one prepared artifact of `bytes` bytes was serialized to
	// disk in wall-clock time d (internal/artifact.Save, fired by the registry
	// persistence layer and the CLI).
	ArtifactSaved(bytes int64, d time.Duration)
	// ArtifactLoaded: one prepared artifact of `bytes` bytes was reconstructed
	// from disk in d — the cold-start path that replaces triangle enumeration,
	// so load latency versus Prepare time is the warm-start win.
	ArtifactLoaded(bytes int64, d time.Duration)
}

// NopObserver implements Observer with no-ops; embed it to observe a subset
// of the event surface.
type NopObserver struct{}

func (NopObserver) RequestAdmitted(Semantics)                      {}
func (NopObserver) RequestRejected(Semantics, Reject)              {}
func (NopObserver) RequestStarted(Semantics, time.Duration)        {}
func (NopObserver) RequestFinished(Semantics, time.Duration, bool) {}
func (NopObserver) RequestPanicked(Semantics)                      {}
func (NopObserver) ShardQuarantined()                              {}
func (NopObserver) ShardRebuilt()                                  {}
func (NopObserver) WorldBatch(int, int)                            {}
func (NopObserver) PeelRound(int)                                  {}
func (NopObserver) Candidate(int)                                  {}
func (NopObserver) PoolRound(int, time.Duration)                   {}
func (NopObserver) IndexBuilt(int)                                 {}
func (NopObserver) CacheHit()                                      {}
func (NopObserver) CacheMiss()                                     {}
func (NopObserver) CacheEvict()                                    {}
func (NopObserver) CacheCoalesce()                                 {}
func (NopObserver) ArtifactSaved(int64, time.Duration)             {}
func (NopObserver) ArtifactLoaded(int64, time.Duration)            {}

// histBuckets is the histogram resolution: bucket b counts durations in
// [2^(b-1), 2^b) nanoseconds, so 40 buckets span sub-ns to ~9 minutes.
const histBuckets = 40

// Histogram is a fixed-size exponential duration histogram with power-of-two
// nanosecond buckets. Observing is two atomic adds plus a bit-length — no
// allocation, no locks — so it can sit on request hot paths.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	bkt   [histBuckets]atomic.Int64
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.bkt[b].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, JSON-ready.
// Durations are reported in milliseconds; quantiles are upper bucket bounds
// (exact to within a factor of two).
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	MeanMs  float64 `json:"meanMs"`
	P50Ms   float64 `json:"p50Ms"`
	P99Ms   float64 `json:"p99Ms"`
	MaxMs   float64 `json:"maxMs"` // upper bound of the highest non-empty bucket
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Concurrent Observe calls
// may land between the atomic reads; each read is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count == 0 {
		return s
	}
	s.MeanMs = float64(h.sum.Load()) / float64(s.Count) / 1e6
	var counts [histBuckets]int64
	total := int64(0)
	for b := range counts {
		counts[b] = h.bkt[b].Load()
		total += counts[b]
	}
	s.P50Ms = quantileMs(&counts, total, 0.50)
	s.P99Ms = quantileMs(&counts, total, 0.99)
	for b := histBuckets - 1; b >= 0; b-- {
		if counts[b] > 0 {
			s.MaxMs = bucketBoundMs(b)
			break
		}
	}
	s.Buckets = counts[:]
	return s
}

// Quantile returns the upper bucket bound of the q-quantile of the observed
// durations (exact to within a factor of two) together with the number of
// observations behind the estimate; (0, 0) when nothing has been observed.
// It reads the live bucket counters — cheap enough for admission decisions —
// so concurrent Observe calls may land between the reads.
func (h *Histogram) Quantile(q float64) (time.Duration, int64) {
	var counts [histBuckets]int64
	total := int64(0)
	for b := range counts {
		counts[b] = h.bkt[b].Load()
		total += counts[b]
	}
	if total == 0 {
		return 0, 0
	}
	rank := int64(q*float64(total-1)) + 1
	cum := int64(0)
	for b := range counts {
		cum += counts[b]
		if cum >= rank {
			return time.Duration(uint64(1) << uint(b)), total
		}
	}
	return time.Duration(uint64(1) << uint(histBuckets-1)), total
}

// quantileMs returns the upper bound of the bucket containing the q-quantile.
func quantileMs(counts *[histBuckets]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	cum := int64(0)
	for b := range counts {
		cum += counts[b]
		if cum >= rank {
			return bucketBoundMs(b)
		}
	}
	return bucketBoundMs(histBuckets - 1)
}

// bucketBoundMs is the exclusive upper bound of bucket b in milliseconds.
func bucketBoundMs(b int) float64 {
	return float64(uint64(1)<<uint(b)) / 1e6
}

// RequestStats is the per-semantics counter block of Metrics.
type RequestStats struct {
	Admitted  atomic.Int64
	Started   atomic.Int64
	Finished  atomic.Int64
	Failed    atomic.Int64
	Panicked  atomic.Int64
	Rejected  [NumRejects]atomic.Int64
	QueueWait Histogram
	Latency   Histogram
}

// Metrics is the batteries-included Observer: a fixed block of atomic
// counters and histograms, safe for concurrent use and allocation-free to
// update. The zero value is ready; hand it to the engine with WithObserver
// and read it back with Snapshot.
type Metrics struct {
	req [NumSemantics]RequestStats

	shardsQuarantined atomic.Int64
	shardsRebuilt     atomic.Int64

	worldBatches  atomic.Int64
	worlds        atomic.Int64
	bankPeakBytes atomic.Int64

	peelRounds atomic.Int64
	rescored   atomic.Int64

	candidates    atomic.Int64
	candidateTris atomic.Int64

	poolRounds atomic.Int64
	poolItems  atomic.Int64
	poolNanos  atomic.Int64

	indexBuilds    atomic.Int64
	indexTris      atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64
	cacheCoalesced atomic.Int64

	artifactSaves     atomic.Int64
	artifactSaveBytes atomic.Int64
	artifactSaveLat   Histogram
	artifactLoads     atomic.Int64
	artifactLoadBytes atomic.Int64
	artifactLoadLat   Histogram
}

var _ Observer = (*Metrics)(nil)

func (m *Metrics) sem(s Semantics) *RequestStats {
	if s >= NumSemantics {
		s = 0
	}
	return &m.req[s]
}

func (m *Metrics) RequestAdmitted(s Semantics) { m.sem(s).Admitted.Add(1) }

func (m *Metrics) RequestRejected(s Semantics, r Reject) {
	if r >= NumRejects {
		r = 0
	}
	m.sem(s).Rejected[r].Add(1)
}

func (m *Metrics) RequestStarted(s Semantics, queueWait time.Duration) {
	st := m.sem(s)
	st.Started.Add(1)
	st.QueueWait.Observe(queueWait)
}

func (m *Metrics) RequestFinished(s Semantics, total time.Duration, failed bool) {
	st := m.sem(s)
	st.Finished.Add(1)
	if failed {
		st.Failed.Add(1)
	}
	st.Latency.Observe(total)
}

func (m *Metrics) RequestPanicked(s Semantics) { m.sem(s).Panicked.Add(1) }

func (m *Metrics) ShardQuarantined() { m.shardsQuarantined.Add(1) }

func (m *Metrics) ShardRebuilt() { m.shardsRebuilt.Add(1) }

// LatencyP50 returns the approximate median total service latency observed
// for semantics s (the upper bound of the histogram bucket holding the
// median, exact to within a factor of two) and the number of finished
// requests behind the estimate. The engine's deadline-aware admission reads
// it to shed queued requests whose remaining deadline cannot cover the
// typical service time.
func (m *Metrics) LatencyP50(s Semantics) (time.Duration, int64) {
	return m.sem(s).Latency.Quantile(0.50)
}

func (m *Metrics) WorldBatch(worlds, words int) {
	m.worldBatches.Add(1)
	m.worlds.Add(int64(worlds))
	// Track the largest resident world-mask bank: worlds × words 64-bit mask
	// words. Under windowed streaming (MCOptions.Window) each batch is one
	// window, so the peak directly exposes the memory bound the window buys.
	bytes := int64(worlds) * int64(words) * 8
	for {
		cur := m.bankPeakBytes.Load()
		if bytes <= cur || m.bankPeakBytes.CompareAndSwap(cur, bytes) {
			return
		}
	}
}

func (m *Metrics) PeelRound(affected int) {
	m.peelRounds.Add(1)
	m.rescored.Add(int64(affected))
}

func (m *Metrics) Candidate(tris int) {
	m.candidates.Add(1)
	m.candidateTris.Add(int64(tris))
}

func (m *Metrics) PoolRound(items int, d time.Duration) {
	m.poolRounds.Add(1)
	m.poolItems.Add(int64(items))
	m.poolNanos.Add(int64(d))
}

func (m *Metrics) IndexBuilt(tris int) {
	m.indexBuilds.Add(1)
	m.indexTris.Add(int64(tris))
}

func (m *Metrics) CacheHit() { m.cacheHits.Add(1) }

func (m *Metrics) CacheMiss() { m.cacheMisses.Add(1) }

func (m *Metrics) CacheEvict() { m.cacheEvictions.Add(1) }

func (m *Metrics) CacheCoalesce() { m.cacheCoalesced.Add(1) }

func (m *Metrics) ArtifactSaved(bytes int64, d time.Duration) {
	m.artifactSaves.Add(1)
	m.artifactSaveBytes.Add(bytes)
	m.artifactSaveLat.Observe(d)
}

func (m *Metrics) ArtifactLoaded(bytes int64, d time.Duration) {
	m.artifactLoads.Add(1)
	m.artifactLoadBytes.Add(bytes)
	m.artifactLoadLat.Observe(d)
}

// ArtifactLoads returns the number of artifacts loaded from disk so far —
// the warm-start counter tests pair with IndexBuilds to prove loads replace
// enumeration rather than adding to it.
func (m *Metrics) ArtifactLoads() int64 { return m.artifactLoads.Load() }

// IndexBuilds returns the number of triangle indexes enumerated from scratch
// so far — the counter registry differentials freeze to prove cached paths
// skip enumeration entirely.
func (m *Metrics) IndexBuilds() int64 { return m.indexBuilds.Load() }

// RequestSnapshot is the JSON-ready view of one semantics' counters.
type RequestSnapshot struct {
	Semantics string            `json:"semantics"`
	Admitted  int64             `json:"admitted"`
	Started   int64             `json:"started"`
	Finished  int64             `json:"finished"`
	Failed    int64             `json:"failed"`
	Panicked  int64             `json:"panicked"`
	Rejected  map[string]int64  `json:"rejected,omitempty"`
	QueueWait HistogramSnapshot `json:"queueWait"`
	Latency   HistogramSnapshot `json:"latency"`
}

// Snapshot is a point-in-time copy of Metrics, shaped for JSON rendering
// (the /metrics endpoint of examples/engine-server) and CLI dumps
// (nudecomp -stats).
type Snapshot struct {
	Requests []RequestSnapshot `json:"requests"`

	ShardsQuarantined int64 `json:"shardsQuarantined"`
	ShardsRebuilt     int64 `json:"shardsRebuilt"`

	WorldBatches int64 `json:"worldBatches"`
	Worlds       int64 `json:"worlds"`
	// BankPeakBytes is the largest single world-mask bank drawn (bytes):
	// worlds × mask-words × 8 of the biggest WorldBatch. With windowed
	// streaming it is bounded by window × words × 8 regardless of the total
	// sample count.
	BankPeakBytes int64 `json:"bankPeakBytes"`

	PeelRounds int64 `json:"peelRounds"`
	Rescored   int64 `json:"rescoredTriangles"`

	Candidates    int64 `json:"candidates"`
	CandidateTris int64 `json:"candidateTriangles"`

	PoolRounds int64   `json:"poolRounds"`
	PoolItems  int64   `json:"poolItems"`
	PoolTimeMs float64 `json:"poolTimeMs"`

	IndexBuilds    int64 `json:"indexBuilds"`
	IndexTriangles int64 `json:"indexTriangles"`
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`
	CacheEvictions int64 `json:"cacheEvictions"`
	CacheCoalesced int64 `json:"cacheCoalesced"`

	// Artifact persistence: counts, cumulative bytes, and wall-clock latency
	// of prepared-artifact saves and loads (internal/artifact). Load latency
	// against the prepare latency above is the cold-start speedup.
	ArtifactSaves       int64             `json:"artifactSaves"`
	ArtifactSavedBytes  int64             `json:"artifactSavedBytes"`
	ArtifactSaveLatency HistogramSnapshot `json:"artifactSaveLatency"`
	ArtifactLoads       int64             `json:"artifactLoads"`
	ArtifactLoadedBytes int64             `json:"artifactLoadedBytes"`
	ArtifactLoadLatency HistogramSnapshot `json:"artifactLoadLatency"`
}

// Snapshot copies the metrics' current state. Counters are read
// individually, so a snapshot taken under load is consistent per field, not
// across fields.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		ShardsQuarantined: m.shardsQuarantined.Load(),
		ShardsRebuilt:     m.shardsRebuilt.Load(),
		WorldBatches:      m.worldBatches.Load(),
		Worlds:            m.worlds.Load(),
		BankPeakBytes:     m.bankPeakBytes.Load(),
		PeelRounds:        m.peelRounds.Load(),
		Rescored:          m.rescored.Load(),
		Candidates:        m.candidates.Load(),
		CandidateTris:     m.candidateTris.Load(),
		PoolRounds:        m.poolRounds.Load(),
		PoolItems:         m.poolItems.Load(),
		PoolTimeMs:        float64(m.poolNanos.Load()) / 1e6,
		IndexBuilds:       m.indexBuilds.Load(),
		IndexTriangles:    m.indexTris.Load(),
		CacheHits:         m.cacheHits.Load(),
		CacheMisses:       m.cacheMisses.Load(),
		CacheEvictions:    m.cacheEvictions.Load(),
		CacheCoalesced:    m.cacheCoalesced.Load(),

		ArtifactSaves:       m.artifactSaves.Load(),
		ArtifactSavedBytes:  m.artifactSaveBytes.Load(),
		ArtifactSaveLatency: m.artifactSaveLat.Snapshot(),
		ArtifactLoads:       m.artifactLoads.Load(),
		ArtifactLoadedBytes: m.artifactLoadBytes.Load(),
		ArtifactLoadLatency: m.artifactLoadLat.Snapshot(),
	}
	for sem := Semantics(0); sem < NumSemantics; sem++ {
		st := &m.req[sem]
		rs := RequestSnapshot{
			Semantics: sem.String(),
			Admitted:  st.Admitted.Load(),
			Started:   st.Started.Load(),
			Finished:  st.Finished.Load(),
			Failed:    st.Failed.Load(),
			Panicked:  st.Panicked.Load(),
			QueueWait: st.QueueWait.Snapshot(),
			Latency:   st.Latency.Snapshot(),
		}
		for r := Reject(0); r < NumRejects; r++ {
			if n := st.Rejected[r].Load(); n > 0 {
				if rs.Rejected == nil {
					rs.Rejected = make(map[string]int64, int(NumRejects))
				}
				rs.Rejected[r.String()] = n
			}
		}
		s.Requests = append(s.Requests, rs)
	}
	return s
}
