// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives the public serving API (Registry,
// Engine, Prepare, ReadEdgeList, LoadArtifact) in a closed loop from one
// process, checks every response against a reference computed through the
// package-level functions, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics of a traced run. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	go run . -workload global-dblp -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	pn "probnucleus"
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 15

// procs is the GOMAXPROCS every workload runs at.
const procs = 2

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// provenance is what a result was measured on and with.
type provenance struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Trace      int         `json:"trace"`
	Seconds    int         `json:"seconds"`
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"nproc"`
	Clients    int         `json:"clients"`
	Shards     int         `json:"shards"`
	Workers    int         `json:"workers_per_shard"`
	Graphs     []graphDesc `json:"graphs"`
}

type graphDesc struct {
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Vertices  int     `json:"vertices"`
	Edges     int     `json:"edges"`
	Triangles int     `json:"triangles"`
	Cliques   int     `json:"cliques"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: global-dblp, local-flickr or serve-mixed")
	seed := fs.Int64("seed", 0, "input seed; 0 is the calibrated datasets")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced configuration and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	ctx := context.Background()

	in, err := makeInputs(w, *seed)
	if err != nil {
		return err
	}
	refs, err := references(in, in.shapes())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	var st *store
	if w.setup == setupWarmStart {
		if st, err = prepareStore(in, work, tr); err != nil {
			return fmt.Errorf("artifact store: %w", err)
		}
	}
	prov := provenanceOf(w, in, *seed, *traceFlag, *seconds)
	d := time.Duration(*seconds) * time.Second
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traceFlag)

	var figs []metric
	var lat []float64
	var attempted, failed int
	if *traceFlag == 0 {
		var win *window
		figs, win, err = timedRun(ctx, w, in, st, refs, d)
		if err != nil {
			return err
		}
		attempted, failed = win.attempted, win.failed
		lat = win.latencies()
	} else {
		x, err := tracedRun(ctx, w, in, st, refs, d, tr)
		if err != nil {
			return err
		}
		figs = x.perLayer()
		attempted = x.untraced.attempted + x.win.attempted
		failed = x.untraced.failed + x.win.failed
		for _, p := range x.probes {
			attempted += 2 // one request at Samples:1, one at full samples
			failed += p.Failed
		}
		if err := writeJSON(filepath.Join(*out, "trace-"+base+".json"), map[string]any{
			"provenance": prov, "per_layer": figs, "probes": x.probes,
			"requests": x.win.records, "spans": tr.spans,
		}); err != nil {
			return err
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]valueUnit)}
	for _, m := range figs {
		if m.Name != "failed_frac" { // 0 on a correct run; the failed count carries it
			res.Metrics[m.Name] = valueUnit{Value: m.Value, Unit: m.Unit}
		}
	}
	report(stdout, prov, figs, res)
	if err := writeJSON(filepath.Join(*out, "result-"+base+".json"), map[string]any{
		"provenance": prov, "metrics": figs, "result": res, "latencies_ms": lat,
	}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// timedRun is the untraced run: setupReps setups, then one measured window
// on the last target. It returns the seven end-to-end metrics.
func timedRun(ctx context.Context, w *workload, in *inputs, st *store, refs map[op]digest, d time.Duration) ([]metric, *window, error) {
	var setups []float64
	var t *target
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.close()
			t = nil
		}
		var m *pn.EngineMetrics
		if w.observer {
			m = new(pn.EngineMetrics)
		}
		// Collect the previous setup's garbage first, so every setup starts
		// from the same heap and the peak RSS is not the sum of the discarded
		// ones.
		runtime.GC()
		begin := time.Now()
		var err error
		if t, err = setup(ctx, w, in, st, m, nil); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer t.close()
	win := runWindow(ctx, t, refs, d, minRequests, false)
	lat := win.latencies()
	n := win.completed()
	p50, _, _ := percentile(lat, 0.5)
	p90, beyond, ok := percentile(lat, 0.9)
	if !ok {
		return nil, nil, fmt.Errorf("only %d requests completed in %v, %d beyond the 90th percentile; it needs %d",
			n, win.elapsed.Round(time.Millisecond), beyond, minBeyond)
	}
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
		{Name: "p50_ms", Unit: "ms", Value: p50, N: n},
		{Name: "p90_ms", Unit: "ms", Value: p90, N: n},
		{Name: "throughput_rps", Unit: "req/s", Value: float64(n) / win.elapsed.Seconds(), N: n},
		{Name: "failed_frac", Unit: "ratio", Value: ratio(float64(win.failed), float64(win.attempted)), N: win.attempted},
		{Name: "alloc_mb_per_req", Unit: "MB", Value: ratio(float64(win.rt.allocBytes)/1e6, float64(n)), N: n},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB()},
	}, win, nil
}

// tracedRun measures half the window untraced (the timed configuration)
// and half traced (EngineMetrics attached, a span around every public
// call, setup included), then runs the sample-scaling and registry-hit
// probes on the traced target.
func tracedRun(ctx context.Context, w *workload, in *inputs, st *store, refs map[op]digest, d time.Duration, tr *tracer) (*traced, error) {
	x := &traced{tr: tr}
	for _, g := range in.graphs {
		x.triangles += g.want.Triangles
		x.cliques += g.cliques
	}
	var m *pn.EngineMetrics
	if w.observer {
		m = new(pn.EngineMetrics)
	}
	ta, err := setup(ctx, w, in, st, m, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	x.untraced = runWindow(ctx, ta, refs, d/2, 0, false)
	ta.close()

	mb := new(pn.EngineMetrics)
	var tb *target
	for i := 0; i < setupReps; i++ {
		if tb != nil {
			tb.close()
		}
		if tb, err = setup(ctx, w, in, st, mb, tr); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
	}
	defer tb.close()
	x.win = runWindow(ctx, tb, refs, d/2, 0, true)
	if x.probes, err = runProbes(ctx, tb, in.shapes(), refs, int64(x.win.attempted)); err != nil {
		return nil, err
	}
	if x.hitUs, err = hitProbe(ctx, tb, in.shapes()); err != nil {
		return nil, err
	}
	x.bankPeak = mb.Snapshot().BankPeakBytes
	return x, nil
}

func provenanceOf(w *workload, in *inputs, seed int64, trace, seconds int) provenance {
	p := provenance{
		Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds,
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Clients: w.clients, Shards: w.shards, Workers: w.workers,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
		p.Commit += modified
	}
	for _, gs := range w.graphs {
		g := in.graphs[gs.dataset]
		p.Graphs = append(p.Graphs, graphDesc{Dataset: gs.dataset, Scale: gs.scale,
			Vertices: g.want.Vertices, Edges: g.want.Edges, Triangles: g.want.Triangles, Cliques: g.cliques})
	}
	return p
}

// report prints the provenance and every metric, one per line, with its
// unit and the number of samples behind it.
func report(out io.Writer, p provenance, figs []metric, res result) {
	fmt.Fprintf(out, "# perfbench %s seed=%d trace=%d seconds=%d\n", p.Workload, p.Seed, p.Trace, p.Seconds)
	fmt.Fprintf(out, "# commit=%s %s GOMAXPROCS=%d nproc=%d clients=%d engine=%d×%d\n",
		p.Commit, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.Clients, p.Shards, p.Workers)
	for _, g := range p.Graphs {
		fmt.Fprintf(out, "# input %s@%g: %d vertices, %d edges, %d triangles, %d 4-cliques\n",
			g.Dataset, g.Scale, g.Vertices, g.Edges, g.Triangles, g.Cliques)
	}
	for _, m := range figs {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(out, "%-28s %16.6f %-6s %s\n", m.Name, m.Value, m.Unit, n)
	}
	fmt.Fprintf(out, "# correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
