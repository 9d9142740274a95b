package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	pn "probnucleus"
)

// span is the benchmark's own timer around one call into a layer's public
// function. Req 0 is setup; Parent 0 is a request's root.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.EndMs - s.StartMs }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs one branch per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanStart is an open span.
type spanStart struct {
	id    int64
	start time.Time
}

func (tr *tracer) begin() spanStart {
	if tr == nil {
		return spanStart{}
	}
	return spanStart{id: tr.ids.Add(1), start: time.Now()}
}

func (tr *tracer) end(s spanStart, req, parent int64, name string) {
	if tr == nil {
		return
	}
	end := time.Now()
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: s.id, Parent: parent, Req: req, Name: name,
		StartMs: ms(s.start.Sub(tr.t0)), EndMs: ms(end.Sub(tr.t0))})
	tr.mu.Unlock()
}

// spanMs returns the durations of the spans with the given name, either
// those in setup or those in requests.
func (tr *tracer) spanMs(name string, inSetup bool) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name && (s.Req == 0) == inSetup {
			out = append(out, s.ms())
		}
	}
	return out
}

// counters is the slice of an EngineMetrics snapshot the per-layer metrics
// read, as cumulative values or, after sub, deltas.
type counters struct {
	Worlds         int64   `json:"worlds"`
	Candidates     int64   `json:"candidates"`
	CandidateTris  int64   `json:"candidateTriangles"`
	PeelRounds     int64   `json:"peelRounds"`
	Rescored       int64   `json:"rescored"`
	PoolRounds     int64   `json:"poolRounds"`
	PoolMs         float64 `json:"poolMs"`
	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	CacheCoalesced int64   `json:"cacheCoalesced"`
	QueueWaits     int64   `json:"queueWaits"`
	QueueWaitMs    float64 `json:"queueWaitMs"`
	Saves          int64   `json:"artifactSaves"`
	SavedBytes     int64   `json:"artifactSavedBytes"`
	SaveMs         float64 `json:"artifactSaveMs"`
}

func readCounters(m *pn.EngineMetrics) counters {
	s := m.Snapshot()
	c := counters{
		Worlds: s.Worlds, Candidates: s.Candidates, CandidateTris: s.CandidateTris,
		PeelRounds: s.PeelRounds, Rescored: s.Rescored,
		PoolRounds: s.PoolRounds, PoolMs: s.PoolTimeMs,
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses, CacheCoalesced: s.CacheCoalesced,
		Saves: s.ArtifactSaves, SavedBytes: s.ArtifactSavedBytes,
		SaveMs: s.ArtifactSaveLatency.MeanMs * float64(s.ArtifactSaveLatency.Count),
	}
	for _, r := range s.Requests {
		c.QueueWaits += r.QueueWait.Count
		c.QueueWaitMs += r.QueueWait.MeanMs * float64(r.QueueWait.Count)
	}
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		Worlds: a.Worlds - b.Worlds, Candidates: a.Candidates - b.Candidates,
		CandidateTris: a.CandidateTris - b.CandidateTris,
		PeelRounds:    a.PeelRounds - b.PeelRounds, Rescored: a.Rescored - b.Rescored,
		PoolRounds: a.PoolRounds - b.PoolRounds, PoolMs: a.PoolMs - b.PoolMs,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		CacheCoalesced: a.CacheCoalesced - b.CacheCoalesced,
		QueueWaits:     a.QueueWaits - b.QueueWaits, QueueWaitMs: a.QueueWaitMs - b.QueueWaitMs,
		Saves: a.Saves - b.Saves, SavedBytes: a.SavedBytes - b.SavedBytes, SaveMs: a.SaveMs - b.SaveMs,
	}
}

// probe is the sample-scaling probe of one global/weak request shape, run
// alone on the traced target after the traced window: the shape once at
// Samples:1 (the fixed cost: candidate growth, view build, seeding, prune)
// and once at its own sample count.
type probe struct {
	Op       string   `json:"op"`
	kind     opKind   // global or weak
	Samples  int      `json:"samples"`
	FixedMs  float64  `json:"fixed_ms"`
	FullMs   float64  `json:"full_ms"`
	PerWorld float64  `json:"per_world_us"`
	Nuclei   int      `json:"nuclei"`
	Delta    counters `json:"delta"` // across the full-sample request
	Failed   int      `json:"failed"`
}

// runProbes probes every global/weak shape. The Samples:1 responses are
// checked against the package-level functions at Samples:1, the full ones
// against refs.
func runProbes(ctx context.Context, t *target, shapes []op, refs map[op]digest, reqBase int64) ([]probe, error) {
	var out []probe
	req := reqBase
	// issue runs one probe request alone and checks it against want.
	issue := func(o op, want digest) (lat float64, r response, delta counters, ok bool) {
		req++
		before := readCounters(t.m)
		root := t.tr.begin()
		begin := time.Now()
		r, err := t.do(ctx, o, req, root.id)
		lat = ms(time.Since(begin))
		t.tr.end(root, req, 0, "probe."+o.kind.String())
		return lat, r, readCounters(t.m).sub(before), err == nil && digestNuclei(r.nuclei) == want
	}
	for _, o := range shapes {
		if !o.kind.isMC() {
			continue
		}
		one := o
		one.samples = 1
		ref1, err := reference(t.in, one)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", one, err)
		}
		p := probe{Op: o.String(), kind: o.kind, Samples: o.samples}
		var r response
		var ok1, ok bool
		p.FixedMs, _, _, ok1 = issue(one, ref1)
		p.FullMs, r, p.Delta, ok = issue(o, refs[o])
		if !ok1 {
			p.Failed++
		}
		if !ok {
			p.Failed++
		}
		p.Nuclei = len(r.nuclei)
		if o.samples > 1 {
			p.PerWorld = (p.FullMs - p.FixedMs) / float64(o.samples-1) * 1000
		}
		out = append(out, p)
	}
	return out, nil
}

// hitProbeReps is how many cached registry lookups registry.hit_us times.
const hitProbeReps = 200

// hitProbe times Registry.Local calls that return the cached result for the
// first local key the workload's reads rely on, and returns the median in
// microseconds (0 without a registry).
func hitProbe(ctx context.Context, t *target, shapes []op) (float64, error) {
	if t.reg == nil {
		return 0, nil
	}
	for _, o := range shapes {
		if o.kind.isWrite() {
			continue
		}
		req := pn.LocalRequest{Theta: o.theta, Mode: pn.ModeDP}
		first, err := t.reg.Local(ctx, o.graph, req)
		if err != nil {
			return 0, err
		}
		var us []float64
		for i := 0; i < hitProbeReps; i++ {
			s := t.tr.begin()
			begin := time.Now()
			r, err := t.reg.Local(ctx, o.graph, req)
			lat := time.Since(begin)
			t.tr.end(s, 0, 0, "registry.Local.hit")
			if err != nil {
				return 0, err
			}
			if r != first {
				return 0, fmt.Errorf("registry hit probe: %s was not served from the cache", o)
			}
			us = append(us, float64(lat)/1e3)
		}
		return median(us), nil
	}
	return 0, nil
}

// metric is one named, unit-carrying figure of a run.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the number of samples behind the figure, where there are several.
	N int `json:"n,omitempty"`
}

// traced is everything the traced run measured, from which the per-layer
// metrics derive.
type traced struct {
	untraced  *window // window A: the timed configuration, no spans
	win       *window // window B: observer attached, spans on every call
	probes    []probe
	hitUs     float64
	bankPeak  int64
	tr        *tracer
	triangles int
	cliques   int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// perLayer derives the per-layer metrics. A layer the workload does not
// exercise reads 0: that is the prediction for it.
func (x *traced) perLayer() []metric {
	b := x.win
	d := b.delta
	n := float64(b.completed())
	var out []metric
	add := func(name, unit string, v float64, samples int) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, N: samples})
	}
	addMedian := func(name, unit string, xs []float64) { add(name, unit, median(xs), len(xs)) }

	const parse = "probgraph.ReadEdgeList"
	addMedian("probgraph.parse_ms", "ms", append(x.tr.spanMs(parse, true), x.tr.spanMs(parse, false)...))
	var prep []float64
	for _, name := range []string{"registry.Put", "Engine.Prepare", "probnucleus.Prepare"} {
		prep = append(prep, x.tr.spanMs(name, true)...)
	}
	addMedian("graph.prepare_ms", "ms", prep)
	add("graph.triangles", "count", float64(x.triangles), 0)
	add("graph.cliques", "count", float64(x.cliques), 0)

	addMedian("artifact.load_ms", "ms", x.tr.spanMs("registry.WarmStart", true))
	add("artifact.save_ms", "ms", ratio(d.SaveMs, float64(d.Saves)), int(d.Saves))
	add("artifact.bytes", "bytes", ratio(float64(d.SavedBytes), float64(d.Saves)), int(d.Saves))

	add("registry.hit_us", "us", x.hitUs, hitProbeReps)
	add("registry.hit_ratio", "ratio", ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)),
		int(d.CacheHits+d.CacheMisses))
	add("registry.coalesced", "count", float64(d.CacheCoalesced), 0)
	var puts []float64
	for _, name := range []string{"registry.Put", "registry.PutArtifact"} {
		puts = append(puts, x.tr.spanMs(name, false)...)
	}
	addMedian("registry.put_ms", "ms", puts)

	add("engine.queue_wait_ms", "ms", ratio(d.QueueWaitMs, float64(d.QueueWaits)), int(d.QueueWaits))

	// A local request computes (peels) on a cache miss; without a registry
	// every one does.
	var peels []float64
	for _, s := range b.samples {
		if s.kind == opLocal && s.computed {
			peels = append(peels, s.ms)
		}
	}
	addMedian("local.ms", "ms", peels)
	computes := float64(len(peels))
	if d.CacheMisses > 0 {
		computes = float64(d.CacheMisses)
	}
	add("local.peel_rounds", "count", ratio(float64(d.PeelRounds), computes), int(computes))
	add("local.rescored_per_round", "count", ratio(float64(d.Rescored), float64(d.PeelRounds)), int(d.PeelRounds))

	// Probe figures are medians over the kind's shapes (one per Monte-Carlo
	// seed); the accept ratio pools them.
	for _, k := range []opKind{opGlobal, opWeak} {
		var fixed, perWorld, cands, candTris []float64
		var nuclei float64
		for _, p := range x.probes {
			if p.kind == k {
				fixed = append(fixed, p.FixedMs)
				perWorld = append(perWorld, p.PerWorld)
				cands = append(cands, float64(p.Delta.Candidates))
				candTris = append(candTris, float64(p.Delta.CandidateTris))
				nuclei += float64(p.Nuclei)
			}
		}
		addMedian(k.String()+".ms", "ms", b.latencies(k))
		addMedian(k.String()+".fixed_ms", "ms", fixed)
		addMedian(k.String()+".per_world_us", "us", perWorld)
		addMedian(k.String()+".candidates", "count", cands)
		if k == opGlobal {
			addMedian("global.candidate_tris", "count", candTris)
			add("global.accept_ratio", "ratio", ratio(nuclei, sum(cands)), len(cands))
		}
	}

	var worlds float64
	for _, p := range x.probes {
		worlds += float64(p.Delta.Worlds)
	}
	add("mc.worlds", "count", ratio(worlds, float64(len(x.probes))), len(x.probes))
	add("mc.bank_peak_kb", "KiB", float64(x.bankPeak)/1024, 0)

	var kernelMs []float64
	for _, s := range b.samples {
		if !s.kind.isWrite() {
			kernelMs = append(kernelMs, s.ms)
		}
	}
	add("par.busy_ms", "ms", ratio(d.PoolMs, n), int(n))
	add("par.share", "ratio", ratio(d.PoolMs, sum(kernelMs)), len(kernelMs))
	add("par.rounds", "count", ratio(float64(d.PoolRounds), n), int(n))

	a := x.untraced
	na := float64(a.completed())
	add("runtime.gc_cycles_per_req", "count", ratio(float64(a.rt.gcCycles), na), int(na))
	add("runtime.gc_pause_ms", "ms", ratio(ms(a.rt.gcPause), na), int(na))

	pa, _, _ := percentile(a.latencies(), 0.5)
	pb, _, _ := percentile(b.latencies(), 0.5)
	add("trace.overhead_pct", "%", 100*(ratio(pb, pa)-1), b.completed())
	return out
}
