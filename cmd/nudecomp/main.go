// Command nudecomp runs probabilistic nucleus decomposition on an edge-list
// file or a named simulated dataset and prints the nuclei it finds.
//
// Usage:
//
//	nudecomp -input graph.txt -theta 0.3                  # local, exact DP
//	nudecomp -dataset krogan -theta 0.3 -mode ap          # local, approximations
//	nudecomp -dataset krogan -theta 0.001 -mode global -k 2
//	nudecomp -dataset krogan -theta 0.001 -mode weak -k 2
//	nudecomp -dataset dblp -theta 0.3 -workers 8          # bounded worker pool
//
// -theta accepts a comma-separated sweep. The graph is prepared once — CSR
// adjacency plus triangle index — and every θ in the sweep executes against
// that one artifact, so an n-point sweep pays for enumeration once instead of
// n times:
//
//	nudecomp -dataset krogan -theta 0.1,0.3,0.5
//	nudecomp -dataset krogan -theta 0.001,0.01 -mode weak -k 1
//
// -workers bounds the parallel execution engine (0 = all cores, 1 = serial);
// every mode produces identical output for every worker count. All modes run
// through a one-shard probnucleus.Engine, and -timeout bounds the
// decomposition with a cancellation context:
//
//	nudecomp -dataset biomine -theta 0.001 -mode weak -timeout 30s
//
// -window streams the global/weak Monte-Carlo world bank in fixed-size
// windows instead of materializing all samples at once, bounding peak
// world-mask memory (visible as "peak bank" under -stats) while producing
// byte-identical nuclei at every window size:
//
//	nudecomp -dataset flickr -theta 0.001 -mode global -samples 1000 -window 100 -stats
//
// -membudget derives the window from a peak world-bank byte budget instead
// of a fixed world count (ignored when -window is set), and -save/-loadidx
// persist the prepare-stage artifact — CSR graph plus triangle index — in
// the versioned binary format, so a later run (or another tool) starts from
// the file with zero triangle enumeration:
//
//	nudecomp -dataset flickr -theta 0.001 -mode global -membudget 1048576 -stats
//	nudecomp -dataset flickr -theta 0.3 -save flickr.pna
//	nudecomp -loadidx flickr.pna -theta 0.001 -mode global -k 1
//
// -cpuprofile and -memprofile write pprof profiles of the decomposition
// phase (graph loading excluded), so hot-path regressions are diagnosable
// straight from the CLI:
//
//	nudecomp -dataset dblp -theta 0.3 -cpuprofile cpu.out -memprofile mem.out
//
// -stats attaches the engine's observer and prints execution counters after
// the run — worlds sampled, peel rounds, candidate validations, pool
// utilisation, request latency:
//
//	nudecomp -dataset krogan -theta 0.001 -mode weak -k 1 -stats
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	pn "probnucleus"
)

func main() {
	var (
		input   = flag.String("input", "", "probabilistic edge-list file (u v p per line)")
		name    = flag.String("dataset", "", "named simulated dataset instead of -input")
		scale   = flag.Float64("scale", 1, "dataset scale for -dataset")
		theta   = flag.String("theta", "0.3", "probability threshold θ, or a comma-separated sweep θ1,θ2,…")
		mode    = flag.String("mode", "dp", "dp | ap | global | weak")
		k       = flag.Int("k", 1, "nucleus level for global/weak modes")
		samples = flag.Int("samples", 200, "Monte-Carlo samples for global/weak modes")
		seed    = flag.Int64("seed", 1, "Monte-Carlo seed")
		window  = flag.Int("window", 0, "stream the world bank in windows of this many worlds (0 = one bank); results are identical at every window size")
		membud  = flag.Int64("membudget", 0, "derive the window from this peak world-bank byte budget (0 = off; ignored when -window is set)")
		save    = flag.String("save", "", "write the prepared artifact (CSR graph + triangle index) to this file after preparing")
		loadidx = flag.String("loadidx", "", "load a prepared artifact written by -save instead of -input/-dataset, skipping triangle enumeration")
		top     = flag.Int("top", 5, "print at most this many nuclei per level")
		workers = flag.Int("workers", 0, "worker pool size (0 = all cores, 1 = serial)")
		timeout = flag.Duration("timeout", 0, "abort the decomposition after this long (0 = no limit)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the decomposition to this file")
		memprof = flag.String("memprofile", "", "write a heap profile taken after the decomposition to this file")
		stats   = flag.Bool("stats", false, "print engine execution stats (worlds, peel rounds, latency) after the run")
	)
	flag.Parse()

	thetas, err := parseThetas(*theta)
	if err != nil {
		fatal(err)
	}

	// The observer is created before graph loading so -loadidx/-save artifact
	// events land in the same -stats snapshot as the decomposition counters.
	var metrics *pn.EngineMetrics
	if *stats {
		metrics = new(pn.EngineMetrics)
	}

	var pg *pn.Graph
	var pre *pn.Prepared
	switch {
	case *loadidx != "":
		if *input != "" || *name != "" {
			fatal(fmt.Errorf("-loadidx carries its own graph; drop -input/-dataset"))
		}
		start := time.Now()
		var bytes int64
		pre, bytes, err = pn.LoadArtifact(*loadidx)
		if err == nil {
			if metrics != nil {
				metrics.ArtifactLoaded(bytes, time.Since(start))
			}
			pg = pre.Graph()
			fmt.Printf("loaded artifact: %s (%s, %d triangles, no enumeration)\n",
				*loadidx, fmtBytes(bytes), pre.Triangles())
		}
	case *input != "":
		pg, err = pn.ReadEdgeListFile(*input)
	case *name != "":
		pg = pn.MustDataset(*name, *scale)
	default:
		fmt.Fprintln(os.Stderr, "nudecomp: need -input, -dataset, or -loadidx")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	st := pg.ComputeStats()
	fmt.Printf("graph: %d vertices, %d edges, dmax %d, p̄ %.3f, %d triangles\n",
		st.NumVertices, st.NumEdges, st.MaxDegree, st.AvgProb, st.NumTriangles)

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	// One-shard engine: identical results to the package-level functions,
	// plus the context hook -timeout needs and the observer hook -stats
	// needs.
	var engOpts []pn.EngineOption
	if metrics != nil {
		engOpts = append(engOpts, pn.WithObserver(metrics))
	}
	eng := pn.NewEngine(1, *workers, engOpts...)
	defer eng.Close()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Decomposition errors are collected rather than fatal()'d so the CPU
	// profile is flushed even on failure — the very run where it is wanted.
	// The graph is prepared once, before the sweep: every θ executes against
	// the same triangle index instead of re-enumerating per query.
	var runErr error
	if pre == nil {
		pre, err = eng.Prepare(ctx, pg)
		if err != nil {
			runErr = err
		}
	}
	if runErr == nil && *save != "" {
		start := time.Now()
		n, err := pn.SaveArtifact(*save, pre)
		if err != nil {
			runErr = err
		} else {
			if metrics != nil {
				metrics.ArtifactSaved(n, time.Since(start))
			}
			fmt.Printf("saved artifact: %s (%s)\n", *save, fmtBytes(n))
		}
	}
	for _, th := range thetas {
		if runErr != nil {
			break
		}
		if len(thetas) > 1 {
			fmt.Printf("— θ=%.4g —\n", th)
		}
		switch *mode {
		case "dp", "ap":
			m := pn.ModeDP
			if *mode == "ap" {
				m = pn.ModeAP
			}
			res, err := eng.LocalPrepared(ctx, pre, pn.LocalRequest{Theta: th, Mode: m})
			if err != nil {
				runErr = err
				break
			}
			printLocal(res, *top)
		case "global":
			nuclei, err := eng.GlobalPrepared(ctx, pre, pn.NucleiRequest{K: *k, Theta: th, Samples: *samples, Seed: *seed, Window: *window, MemBudget: *membud})
			if err != nil {
				runErr = err
				break
			}
			printProbNuclei("g", nuclei, *k, th, *top)
		case "weak":
			nuclei, err := eng.WeakPrepared(ctx, pre, pn.NucleiRequest{K: *k, Theta: th, Samples: *samples, Seed: *seed, Window: *window, MemBudget: *membud})
			if err != nil {
				runErr = err
				break
			}
			printProbNuclei("w", nuclei, *k, th, *top)
		default:
			runErr = fmt.Errorf("unknown mode %q", *mode)
		}
	}

	if *cpuprof != "" {
		pprof.StopCPUProfile()
	}
	if *memprof != "" && runErr == nil {
		f, err := os.Create(*memprof)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // materialize the live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if runErr != nil {
		fatal(runErr)
	}
	if metrics != nil {
		printStats(metrics.Snapshot())
	}
}

// printStats renders the engine observer's snapshot: per-semantics request
// latencies and the kernel progress counters.
func printStats(snap pn.EngineSnapshot) {
	fmt.Println("engine stats:")
	for _, r := range snap.Requests {
		if r.Started == 0 {
			continue
		}
		fmt.Printf("  %-6s %d finished (%d failed), latency mean %.1fms p99 %.1fms max %.1fms\n",
			r.Semantics, r.Finished, r.Failed, r.Latency.MeanMs, r.Latency.P99Ms, r.Latency.MaxMs)
	}
	if snap.WorldBatches > 0 {
		fmt.Printf("  monte-carlo: %d worlds in %d batches, peak bank %s\n",
			snap.Worlds, snap.WorldBatches, fmtBytes(snap.BankPeakBytes))
	}
	if snap.Candidates > 0 {
		fmt.Printf("  candidates: %d validated, %d triangles\n", snap.Candidates, snap.CandidateTris)
	}
	if snap.ArtifactSaves > 0 {
		fmt.Printf("  artifacts: %d saved, %s, mean %.1fms\n",
			snap.ArtifactSaves, fmtBytes(snap.ArtifactSavedBytes), snap.ArtifactSaveLatency.MeanMs)
	}
	if snap.ArtifactLoads > 0 {
		fmt.Printf("  artifacts: %d loaded, %s, mean %.1fms\n",
			snap.ArtifactLoads, fmtBytes(snap.ArtifactLoadedBytes), snap.ArtifactLoadLatency.MeanMs)
	}
	fmt.Printf("  peeling: %d sub-rounds, %d triangles re-scored\n", snap.PeelRounds, snap.Rescored)
	fmt.Printf("  pool: %d rounds, %d items, %.1fms busy\n", snap.PoolRounds, snap.PoolItems, snap.PoolTimeMs)
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func printLocal(res *pn.LocalResult, top int) {
	maxK := res.MaxNucleusness()
	fmt.Printf("ℓ-NuDecomp: %d triangles, max nucleusness %d\n", len(res.Nucleusness), maxK)
	// Histogram of nucleusness values.
	hist := map[int]int{}
	for _, v := range res.Nucleusness {
		hist[v]++
	}
	keys := make([]int, 0, len(hist))
	for v := range hist {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	for _, v := range keys {
		fmt.Printf("  ν=%d: %d triangles\n", v, hist[v])
	}
	for k := maxK; k >= 1 && k > maxK-3; k-- {
		nuclei := res.NucleiForK(k)
		fmt.Printf("ℓ-(%d,%.3g)-nuclei: %d\n", k, res.Theta, len(nuclei))
		for i, nuc := range nuclei {
			if i >= top {
				fmt.Printf("  … %d more\n", len(nuclei)-top)
				break
			}
			fmt.Printf("  #%d: %d vertices, %d edges, %d triangles\n",
				i+1, len(nuc.Vertices), len(nuc.Edges), len(nuc.Triangles))
		}
	}
}

func printProbNuclei(tag string, nuclei []pn.ProbNucleus, k int, theta float64, top int) {
	fmt.Printf("%s-(%d,%.3g)-nuclei: %d\n", tag, k, theta, len(nuclei))
	for i, nuc := range nuclei {
		if i >= top {
			fmt.Printf("  … %d more\n", len(nuclei)-top)
			break
		}
		fmt.Printf("  #%d: %d vertices, %d edges, %d triangles, min Pr̂ %.3f\n",
			i+1, len(nuc.Vertices), len(nuc.Edges), len(nuc.Triangles), nuc.MinProb)
	}
}

// parseThetas splits the -theta value on commas. Range validation stays with
// the engine (ErrTheta) so the CLI and the server reject identically.
func parseThetas(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	thetas := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-theta %q: %q is not a number", s, p)
		}
		thetas = append(thetas, v)
	}
	return thetas, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nudecomp:", err)
	os.Exit(1)
}
