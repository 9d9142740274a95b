// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. 7) at benchmark-friendly scales. The cmd/experiments tool runs the
// same experiments at full scale and prints the paper-style tables;
// EXPERIMENTS.md records the shape comparison. Dataset generation is cached
// across benchmarks so each measures only the algorithm under test.
package probnucleus_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	pn "probnucleus"
)

var (
	benchMu    sync.Mutex
	benchCache = map[string]*pn.Graph{}
)

func benchGraph(name string, scale float64) *pn.Graph {
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s@%g", name, scale)
	if g, ok := benchCache[key]; ok {
		return g
	}
	g := pn.MustDataset(name, scale)
	benchCache[key] = g
	return g
}

// --- Gated rows ---
//
// A gated row is a benchmark row held to a baseline recorded on the
// reference runner (Intel Xeon @ 2.10GHz, -benchmem). Allocation counts are
// deterministic, so TestBenchmarkAllocs holds every row to 1.25× its
// baseline allocs/op in a plain `go test`. Wall clock carries a claim only
// over several iterations, so the row's benchmark holds it to 2× its
// baseline ns/op when b.N > 1, that is under `-benchtime 3x`, never under
// `-benchtime 1x`.

type gatedRow struct {
	name string
	// shape prepares the row's inputs outside any measurement and returns
	// one operation of the row.
	shape func(tb testing.TB) func() error
	// parallel runs the operation from b.RunParallel goroutines.
	parallel bool
	// nsPerOp and allocsPerOp are the baseline.
	nsPerOp, allocsPerOp float64
}

// benchGated runs each row as a sub-benchmark and applies its wall-clock
// gate.
func benchGated(b *testing.B, rows []gatedRow) {
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			benchOp(b, r.shape(b), r.parallel)
			if ns := nsPerOp(b); b.N > 1 && ns > 2*r.nsPerOp {
				b.Errorf("%.0f ns/op exceeds 2x the baseline %.0f ns/op", ns, r.nsPerOp)
			}
		})
	}
}

// benchOp times b.N calls of op with allocations reported.
func benchOp(b *testing.B, op func() error, parallel bool) {
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := op(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	} else {
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
}

func nsPerOp(b *testing.B) float64 { return float64(b.Elapsed().Nanoseconds()) / float64(b.N) }

// TestBenchmarkAllocs holds every gated row to 1.25× its baseline
// allocs/op. It counts the mallocs of one call of the row's own shape after
// a warm-up call (for the contended rows one request without contention, as
// a single-iteration RunParallel makes), at the process's GOMAXPROCS:
// testing.AllocsPerRun would force GOMAXPROCS to 1 and so gate a one-worker
// shape that the local rows never run. Race instrumentation distorts the
// counts, so the race build skips it.
func TestBenchmarkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	for _, set := range []struct {
		bench string
		rows  []gatedRow
	}{
		{"Fig4LocalDP", fig4LocalDPRows},
		{"Global", globalRows},
		{"Weak", weakRows},
		{"GlobalServed", globalServedRows},
		{"WeakServed", weakServedRows},
		{"EngineContended", engineContendedRows},
	} {
		for _, r := range set.rows {
			t.Run(set.bench+"/"+r.name, func(t *testing.T) {
				op := r.shape(t)
				if err := op(); err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := op()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				allocs := float64(after.Mallocs - before.Mallocs)
				t.Logf("%.0f allocs/op, baseline %.0f", allocs, r.allocsPerOp)
				if allocs > 1.25*r.allocsPerOp {
					t.Error("allocs/op exceed 1.25x the baseline")
				}
			})
		}
	}
}

// --- Table 1: dataset statistics ---

func BenchmarkTable1Stats(b *testing.B) {
	for _, name := range pn.DatasetNames() {
		g := benchGraph(name, 0.15)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := g.ComputeStats()
				if st.NumEdges == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// --- Figure 4: local decomposition, DP vs AP, over θ ---

// localShape is one Fig. 4 local decomposition of a dataset at its
// benchmark scale.
func localShape(name string, theta float64, mode pn.Mode) func(testing.TB) func() error {
	return func(testing.TB) func() error {
		g := benchGraph(name, fig4Scale(name))
		return func() error {
			_, err := pn.LocalDecompose(g, theta, pn.Options{Mode: mode})
			return err
		}
	}
}

func localDPRow(name string, theta, ns, allocs float64) gatedRow {
	return gatedRow{
		name:        fmt.Sprintf("%s/theta=%.1f", name, theta),
		shape:       localShape(name, theta, pn.ModeDP),
		nsPerOp:     ns,
		allocsPerOp: allocs,
	}
}

// fig4LocalDPRows, like globalRows and weakRows, carry the baselines
// measured at commit 5affd80 (-benchtime 2x), immediately before the
// memory-shaped validation kernels — except the allocsPerOp of globalRows,
// weakRows and engineContendedRows, which are today's counts (see
// globalRows), and globalServedRows and weakServedRows, whose baselines are
// both today's.
var fig4LocalDPRows = []gatedRow{
	localDPRow("krogan", 0.1, 18152633, 1468),
	localDPRow("krogan", 0.4, 15937006, 1437),
	localDPRow("dblp", 0.1, 208455128, 6587),
	localDPRow("dblp", 0.4, 204342008, 6542),
	localDPRow("flickr", 0.1, 861368998, 4557),
	localDPRow("flickr", 0.4, 943258246, 4516),
	localDPRow("pokec", 0.1, 78402644, 7910),
	localDPRow("pokec", 0.4, 72895732, 7844),
	localDPRow("biomine", 0.1, 725519810, 7563),
	localDPRow("biomine", 0.4, 769774422, 7528),
	localDPRow("ljournal", 0.1, 442041117, 13599),
	localDPRow("ljournal", 0.4, 397355548, 13468),
}

func BenchmarkFig4LocalDP(b *testing.B) { benchGated(b, fig4LocalDPRows) }

func BenchmarkFig4LocalAP(b *testing.B) {
	for _, name := range pn.DatasetNames() {
		for _, theta := range []float64{0.1, 0.4} {
			b.Run(fmt.Sprintf("%s/theta=%.1f", name, theta), func(b *testing.B) {
				benchOp(b, localShape(name, theta, pn.ModeAP)(b), false)
			})
		}
	}
}

// fig4Scale keeps the per-iteration cost of the three large datasets inside
// benchmark budgets while preserving the DP-vs-AP gap.
func fig4Scale(name string) float64 {
	switch name {
	case "pokec", "biomine", "ljournal":
		return 0.08
	default:
		return 0.15
	}
}

// --- Figure 5: FG vs WG ---

func BenchmarkFig5Global(b *testing.B) {
	for _, name := range []string{"krogan", "dblp"} {
		g := benchGraph(name, 0.04)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pn.GlobalNuclei(g, 1, 0.001, pn.MCOptions{Samples: 50, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5WeaklyGlobal(b *testing.B) {
	for _, name := range []string{"krogan", "dblp"} {
		g := benchGraph(name, 0.04)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pn.WeaklyGlobalNuclei(g, 1, 0.001, pn.MCOptions{Samples: 50, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Global / weakly-global candidate pipeline (allocation-tracked) ---
//
// BenchmarkGlobal and BenchmarkWeak measure the Monte-Carlo validation
// pipeline in isolation: the local decomposition is precomputed outside the
// timer and injected through MCOptions.Local. Every op shares that Local,
// so after the first it runs from the candidate plan the first published on
// it, and allocs/op counts only the possible-world sampling, the per-world
// checks and the results. Their rows are gated like fig4LocalDPRows.

type nucleiFunc func(*pn.Graph, int, float64, pn.MCOptions) ([]pn.ProbNucleus, error)

// nucleiShape is one call of nuclei at level k on a dataset at scale 0.04,
// θ = 0.001, with 100 samples on one worker and the local decomposition
// precomputed.
func nucleiShape(name string, k int, nuclei nucleiFunc) func(testing.TB) func() error {
	return func(tb testing.TB) func() error {
		g := benchGraph(name, 0.04)
		local, err := pn.LocalDecompose(g, 0.001, pn.Options{Mode: pn.ModeDP})
		if err != nil {
			tb.Fatal(err)
		}
		opts := pn.MCOptions{Samples: 100, Seed: 1, Local: local, Workers: 1}
		return func() error {
			_, err := nuclei(g, k, 0.001, opts)
			return err
		}
	}
}

// globalRows, weakRows and engineContendedRows gate allocations at the
// counts TestBenchmarkAllocs measures on ops that run from a published
// candidate plan (the same at GOMAXPROCS 1 and 2), so one extra allocation
// per 64-world lane block of the scan fails them, as does a candidate plan
// rebuilt on every op; their nsPerOp keep the older baselines.
var globalRows = []gatedRow{
	{name: "krogan", shape: nucleiShape("krogan", 1, pn.GlobalNuclei), nsPerOp: 158785179, allocsPerOp: 938},
	{name: "dblp", shape: nucleiShape("dblp", 1, pn.GlobalNuclei), nsPerOp: 1315506262, allocsPerOp: 1754},
	{name: "flickr", shape: nucleiShape("flickr", 1, pn.GlobalNuclei), nsPerOp: 28174649844, allocsPerOp: 139},
}

var weakRows = []gatedRow{
	{name: "krogan", shape: nucleiShape("krogan", 1, pn.WeaklyGlobalNuclei), nsPerOp: 18662049, allocsPerOp: 119},
	{name: "dblp", shape: nucleiShape("dblp", 1, pn.WeaklyGlobalNuclei), nsPerOp: 113875021, allocsPerOp: 202},
	{name: "flickr", shape: nucleiShape("flickr", 1, pn.WeaklyGlobalNuclei), nsPerOp: 1592818490, allocsPerOp: 66},
}

func BenchmarkGlobal(b *testing.B) { benchGated(b, globalRows) }

func BenchmarkWeak(b *testing.B) { benchGated(b, weakRows) }

// BenchmarkWeakServed times the w-NuDecomp request shape that serves most
// of a mixed workload — dblp at scale 0.04, k = 1, θ = 0.1 — the way a
// server runs it: through a Registry on one warm Engine shard, of one
// worker as the mixed workload serves it and of two, so the prepared
// artifact, the cached local result with its candidate plan and the shard's
// weak scratch are all reused. With 1 sample the row is nearly all
// sample-independent work (the scratch bind, the judge and the nucleus
// assembly); with 100 it adds the world draw and the lane scoring. The
// rows are gated like globalServedRows: allocsPerOp are the counts
// TestBenchmarkAllocs reads, the same at GOMAXPROCS 1 and 2, and nsPerOp
// the median of three runs on a 2-CPU Intel Xeon (-benchtime 40x). Cutting
// every candidate's peel seed on each op, as the kernel did before the
// seeds moved onto the plan, took 3.2–4.0 ms/op at 1 sample on that
// machine and fails the 2× wall-clock gate.
func BenchmarkWeakServed(b *testing.B) { benchGated(b, weakServedRows) }

var weakServedRows = []gatedRow{
	{name: "samples=1", shape: weakServedShape(1, 1), nsPerOp: 1544420, allocsPerOp: 139},
	{name: "samples=100", shape: weakServedShape(1, 100), nsPerOp: 4447730, allocsPerOp: 275},
	{name: "samples=1,workers=2", shape: weakServedShape(2, 1), nsPerOp: 858618, allocsPerOp: 139},
	{name: "samples=100,workers=2", shape: weakServedShape(2, 100), nsPerOp: 2945220, allocsPerOp: 275},
}

// weakServedShape is one served w-NuDecomp request at the given sample
// count, at seed 1, on a registry whose one shard has the given number of
// workers, after a first request has cached the local result and warmed
// the shard.
func weakServedShape(workers, samples int) func(testing.TB) func() error {
	return func(tb testing.TB) func() error {
		eng := pn.NewEngine(1, workers)
		tb.Cleanup(eng.Close)
		reg := pn.NewRegistry(eng)
		ctx := context.Background()
		if _, err := reg.Put(ctx, "dblp", benchGraph("dblp", 0.04)); err != nil {
			tb.Fatal(err)
		}
		req := pn.NucleiRequest{K: 1, Theta: 0.1, Samples: samples, Seed: 1}
		op := func() error {
			_, err := reg.Weak(ctx, "dblp", req)
			return err
		}
		if err := op(); err != nil {
			tb.Fatal(err)
		}
		return op
	}
}

// BenchmarkGlobalServed times the g-NuDecomp request shape of the
// benchmark's global-dblp workload — dblp at scale 0.04, k = 1, θ = 0.57,
// 100 samples, cycling through 8 seeds — the way a server runs it: through
// a Registry on one Engine shard of 2 workers. The warm row's registry
// caches the local result, so every op after the first runs from the
// candidate plan the first published on it and only draws and scans its
// worlds. The cold row's registry caches nothing, so every op peels a fresh
// local result and builds its plan: the cost of the first request after a
// graph is written. Its baselines were measured on a 2-CPU Intel Xeon
// (-benchtime 40x); the warm row's allocation gate fails if ops stop
// reusing the plan or the shard's g-NuDecomp scratch. Each request ends by
// growing every worker's seed and checker to the largest candidate any
// worker has seeded, and the warm row's shape has served every seed of its
// cycle before the first op, so no op grows them, whichever worker scores
// which candidate. TestBenchmarkAllocs reads 7 for it; a garbage collection
// falling inside the counted op adds up to 6 (about one run in 40), so the
// baseline is 12.
func BenchmarkGlobalServed(b *testing.B) { benchGated(b, globalServedRows) }

var globalServedRows = []gatedRow{
	{name: "warm", shape: globalServedShape(pn.DefaultCacheCapacity), nsPerOp: 6379793, allocsPerOp: 12},
	{name: "cold", shape: globalServedShape(0), nsPerOp: 28020804, allocsPerOp: 1594},
}

// globalServedShape is one served global-dblp request on a registry of the
// given result-cache capacity; successive ops take successive seeds. A
// caching registry is warmed with one request per seed of the cycle first,
// so every op of the warm row runs on a shard that has met each of them.
func globalServedShape(cache int) func(testing.TB) func() error {
	return func(tb testing.TB) func() error {
		eng := pn.NewEngine(1, 2)
		tb.Cleanup(eng.Close)
		reg := pn.NewRegistry(eng, pn.WithCacheCapacity(cache))
		ctx := context.Background()
		if _, err := reg.Put(ctx, "dblp", benchGraph("dblp", 0.04)); err != nil {
			tb.Fatal(err)
		}
		i := 0
		op := func() error {
			req := pn.NucleiRequest{K: 1, Theta: 0.57, Samples: 100, Seed: int64(1 + i%8)}
			i++
			_, err := reg.Global(ctx, "dblp", req)
			return err
		}
		for cache > 0 && i < 8 {
			if err := op(); err != nil {
				tb.Fatal(err)
			}
		}
		return op
	}
}

// BenchmarkGlobalLevels is BenchmarkGlobal above k = 1: at k ≥ 2 a world's
// support test counts each triangle's alive cliques on the bit-sliced
// counter instead of stopping at the first one, so these rows time the deep
// end of the g-NuDecomp world scan.
func BenchmarkGlobalLevels(b *testing.B) { benchLevels(b, pn.GlobalNuclei) }

// BenchmarkWeakLevels is BenchmarkWeak above k = 1: at k ≥ 2 a world's
// losses cascade through the candidate's 4-cliques instead of stopping at
// the triangles that lost an edge, so these rows time the deep end of the
// w-NuDecomp world scoring.
func BenchmarkWeakLevels(b *testing.B) { benchLevels(b, pn.WeaklyGlobalNuclei) }

// benchLevels times nuclei at k = 2 and 3 on krogan and dblp in the shape
// of BenchmarkGlobal and BenchmarkWeak.
func benchLevels(b *testing.B, nuclei nucleiFunc) {
	for _, name := range []string{"krogan", "dblp"} {
		for _, k := range []int{2, 3} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				benchOp(b, nucleiShape(name, k, nuclei)(b), false)
			})
		}
	}
}

// BenchmarkEngineReuse measures what warm reuse buys a server over the cold
// per-request path, for both the local and global request shapes. The cold
// rows are the raw engine path: every iteration prepares the graph —
// re-enumerating its triangle index — and queries the new artifact, which
// peels (and, for global, samples worlds). The warm rows go
// through a Registry whose graph was registered — prepared artifact built —
// and whose local result was computed before the timer: a warm local query
// is a pure cache hit (no enumeration, no peel), and a warm global query
// pays only Monte-Carlo validation on the shared artifact. Its rows are
// report-only: no baseline gates them.
func BenchmarkEngineReuse(b *testing.B) {
	g := benchGraph("krogan", 0.04)
	localReq := pn.LocalRequest{Theta: 0.001}
	globReq := pn.NucleiRequest{K: 1, Theta: 0.001, Samples: 100, Seed: 1}
	ctx := context.Background()

	cold := func(run func(eng *pn.Engine) error) func(b *testing.B) {
		return func(b *testing.B) {
			eng := pn.NewEngine(1, 1)
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(eng); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	warm := func(run func(reg *pn.Registry) error) func(b *testing.B) {
		return func(b *testing.B) {
			eng := pn.NewEngine(1, 1)
			defer eng.Close()
			reg := pn.NewRegistry(eng)
			if _, err := reg.Put(ctx, "krogan", g); err != nil {
				b.Fatal(err)
			}
			// Pre-warm: the first query computes and caches the local result.
			if err := run(reg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(reg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("local-cold", cold(func(eng *pn.Engine) error {
		pre, err := eng.Prepare(ctx, g)
		if err != nil {
			return err
		}
		_, err = eng.LocalPrepared(ctx, pre, localReq)
		return err
	}))
	b.Run("local-warm", warm(func(reg *pn.Registry) error {
		_, err := reg.Local(ctx, "krogan", localReq)
		return err
	}))
	b.Run("global-cold", cold(func(eng *pn.Engine) error {
		pre, err := eng.Prepare(ctx, g)
		if err != nil {
			return err
		}
		_, err = eng.GlobalPrepared(ctx, pre, globReq)
		return err
	}))
	b.Run("global-warm", warm(func(reg *pn.Registry) error {
		_, err := reg.Global(ctx, "krogan", globReq)
		return err
	}))
}

// BenchmarkColdStart measures what a persisted artifact buys a restarting
// server: the prepare rows pay the full Prepare-from-edges path — triangle
// and 4-clique enumeration — while the load rows read the same graph's
// artifact back through the loader (checksum and invariant verification,
// zero-copy section aliasing, no enumeration). On flickr, the largest
// graph, loading must be at least 10× faster than preparing — that margin
// is the point of the binary format — so when b.N > 1 the load row fails
// below it, against the prepare row's last multi-iteration run.
func BenchmarkColdStart(b *testing.B) {
	for _, name := range []string{"krogan", "dblp", "flickr"} {
		g := benchGraph(name, 0.04)
		pre, err := pn.Prepare(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), name+".pna")
		if _, err := pn.SaveArtifact(path, pre); err != nil {
			b.Fatal(err)
		}
		var prepareNs float64
		b.Run(name+"/prepare", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pn.Prepare(g, 0); err != nil {
					b.Fatal(err)
				}
			}
			if b.N > 1 {
				prepareNs = nsPerOp(b)
			}
		})
		b.Run(name+"/load", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, _, err := pn.LoadArtifact(path)
				if err != nil {
					b.Fatal(err)
				}
				if p.Triangles() != pre.Triangles() {
					b.Fatalf("loaded artifact has %d triangles, want %d", p.Triangles(), pre.Triangles())
				}
			}
			if ns := nsPerOp(b); name == "flickr" && b.N > 1 && prepareNs > 0 && prepareNs < 10*ns {
				b.Errorf("artifact load %.0f ns/op is only %.1fx faster than prepare %.0f ns/op, want >= 10x", ns, prepareNs/ns, prepareNs)
			}
		})
	}
}

// BenchmarkEngineContended measures the observer's hot-path cost where it
// matters: more goroutines than shards hammering one engine, so every
// request crosses admission, queueing, and the kernel hook sites. The
// observer=metrics row must stay within a few percent of observer=nil —
// the nil-observer fast path is a single branch, and EngineMetrics is
// atomics-only. Both rows carry ns/op baselines from commit c274ddd, before
// the fault-tolerance layer: disabled fault injection returns the inner
// observer unchanged, so it must keep the contended path within noise of
// them. Their allocs/op are today's counts, as for globalRows.
func BenchmarkEngineContended(b *testing.B) { benchGated(b, engineContendedRows) }

var engineContendedRows = []gatedRow{
	{name: "observer=nil", shape: contendedShape(false), parallel: true, nsPerOp: 170169506, allocsPerOp: 931},
	{name: "observer=metrics", shape: contendedShape(true), parallel: true, nsPerOp: 170780706, allocsPerOp: 931},
}

// contendedShape is one global request on a two-shard engine, observed by
// EngineMetrics when metrics is set.
func contendedShape(metrics bool) func(testing.TB) func() error {
	return func(tb testing.TB) func() error {
		g := benchGraph("krogan", 0.04)
		local, err := pn.LocalDecompose(g, 0.001, pn.Options{Mode: pn.ModeDP})
		if err != nil {
			tb.Fatal(err)
		}
		req := pn.NucleiRequest{K: 1, Theta: 0.001, Samples: 100, Seed: 1, Local: local}
		var opts []pn.EngineOption
		if metrics {
			opts = append(opts, pn.WithObserver(new(pn.EngineMetrics)))
		}
		eng := pn.NewEngine(2, 1, opts...)
		tb.Cleanup(eng.Close)
		ctx := context.Background()
		pre, err := eng.Prepare(ctx, g)
		if err != nil {
			tb.Fatal(err)
		}
		return func() error {
			_, err := eng.GlobalPrepared(ctx, pre, req)
			return err
		}
	}
}

// --- Table 2: AP accuracy against DP ---

func BenchmarkTable2APAccuracy(b *testing.B) {
	g := benchGraph("krogan", 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp, err := pn.LocalDecompose(g, 0.2, pn.Options{Mode: pn.ModeDP})
		if err != nil {
			b.Fatal(err)
		}
		ap, err := pn.LocalDecompose(g, 0.2, pn.Options{Mode: pn.ModeAP})
		if err != nil {
			b.Fatal(err)
		}
		wrong := 0
		for t := range dp.Nucleusness {
			if dp.Nucleusness[t] != ap.Nucleusness[t] {
				wrong++
			}
		}
		b.ReportMetric(100*float64(wrong)/float64(len(dp.Nucleusness)), "%err")
	}
}

// --- Figure 6: approximation tail queries ---

func BenchmarkFig6Approximations(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	probs := make([]float64, 100)
	for i := range probs {
		probs[i] = 0.05 + 0.5*rng.Float64()
	}
	for _, m := range []pn.Method{0, 1, 2, 3, 4} { // DP, CLT, Poisson, TP, Binomial
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if k := pn.SupportMaxK(probs, 0.3, m); k < 0 {
					b.Fatal("negative k")
				}
			}
		})
	}
}

// --- Table 3: decomposition quality pipeline (nucleus vs truss vs core) ---

func BenchmarkTable3Nucleus(b *testing.B) {
	g := benchGraph("dblp", 0.15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := pn.LocalDecompose(g, 0.3, pn.Options{Mode: pn.ModeAP})
		if err != nil {
			b.Fatal(err)
		}
		for _, nuc := range res.NucleiForK(res.MaxNucleusness()) {
			in := make(map[int32]bool, len(nuc.Vertices))
			for _, v := range nuc.Vertices {
				in[v] = true
			}
			pn.Measure(g.VertexSubgraph(in))
		}
	}
}

func BenchmarkTable3Truss(b *testing.B) {
	g := benchGraph("dblp", 0.15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := pn.TrussDecompose(g, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range res.TrussSubgraphs(res.MaxTruss()) {
			pn.Measure(sub)
		}
	}
}

func BenchmarkTable3Core(b *testing.B) {
	g := benchGraph("dblp", 0.15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := pn.CoreDecompose(g, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range res.CoreSubgraphs(res.MaxCore()) {
			pn.Measure(sub)
		}
	}
}

// --- Figure 7: k sweep on flickr ---

func BenchmarkFig7KSweep(b *testing.B) {
	g := benchGraph("flickr", 0.15)
	res, err := pn.LocalDecompose(g, 0.3, pn.Options{Mode: pn.ModeAP})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for k := 1; k <= res.MaxNucleusness(); k++ {
			total += len(res.NucleiForK(k))
		}
		if total == 0 {
			b.Fatal("no nuclei in sweep")
		}
	}
}

// --- Parallel engine: serial vs parallel pairs ---
//
// Each pair runs the identical workload with Workers=1 (serial) and
// Workers=0 (all cores); on a ≥4-core runner the parallel variant should be
// ≥2x faster, and the differential tests prove the outputs are identical.

func benchWorkersPair(b *testing.B, run func(b *testing.B, workers int)) {
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) { run(b, 0) })
}

func BenchmarkParallelLocalDP(b *testing.B) {
	g := benchGraph("flickr", 0.15)
	benchWorkersPair(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			if _, err := pn.LocalDecompose(g, 0.3, pn.Options{Mode: pn.ModeDP, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParallelLocalAP(b *testing.B) {
	g := benchGraph("flickr", 0.15)
	benchWorkersPair(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			if _, err := pn.LocalDecompose(g, 0.3, pn.Options{Mode: pn.ModeAP, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParallelWeaklyGlobal(b *testing.B) {
	g := benchGraph("krogan", 0.04)
	local, err := pn.LocalDecompose(g, 0.001, pn.Options{Mode: pn.ModeDP})
	if err != nil {
		b.Fatal(err)
	}
	benchWorkersPair(b, func(b *testing.B, workers int) {
		opts := pn.MCOptions{Samples: 200, Seed: 1, Local: local, Workers: workers}
		for i := 0; i < b.N; i++ {
			if _, err := pn.WeaklyGlobalNuclei(g, 1, 0.001, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 8: the three semantics on the same graph ---

func BenchmarkFig8Modes(b *testing.B) {
	g := benchGraph("krogan", 0.04)
	local, err := pn.LocalDecompose(g, 0.001, pn.Options{Mode: pn.ModeAP})
	if err != nil {
		b.Fatal(err)
	}
	opts := pn.MCOptions{Samples: 50, Seed: 3, Local: local}
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := pn.LocalDecompose(g, 0.001, pn.Options{Mode: pn.ModeAP})
			if err != nil {
				b.Fatal(err)
			}
			res.NucleiForK(1)
		}
	})
	b.Run("weakly-global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pn.WeaklyGlobalNuclei(g, 1, 0.001, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pn.GlobalNuclei(g, 1, 0.001, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
