// Package probnucleus is a library for nucleus decomposition in
// probabilistic (uncertain) graphs, implementing the algorithms of
// "Nucleus Decomposition in Probabilistic Graphs: Hardness and Algorithms"
// (Esfahani, Srinivasan, Thomo, Wu; ICDE 2022).
//
// A probabilistic graph assigns every edge an independent existence
// probability. The k-(3,4)-nucleus of such a graph is a maximal dense
// subgraph in which every triangle is contained in at least k 4-cliques
// with probability at least θ. The package provides:
//
//   - Local decomposition (ℓ-NuDecomp): exact polynomial-time peeling with a
//     Poisson-binomial dynamic program (ModeDP) or the statistical
//     approximation framework with Poisson / Translated Poisson / Normal /
//     Binomial tails (ModeAP).
//   - Global decomposition (g-NuDecomp, #P-hard) and weakly-global
//     decomposition (w-NuDecomp, NP-hard), approximated by search-space
//     pruning plus Monte-Carlo sampling with Hoeffding guarantees.
//   - Probabilistic (k,η)-core and local (k,γ)-truss baselines, and the
//     probabilistic density / clustering-coefficient metrics used to compare
//     them.
//   - Generators for the six simulated evaluation datasets and text IO for
//     `u v p` edge lists.
//
// Quick start:
//
//	pg, _ := probnucleus.ReadEdgeListFile("graph.txt")
//	res, _ := probnucleus.LocalDecompose(pg, 0.3, probnucleus.Options{})
//	for _, nucleus := range res.NucleiForK(res.MaxNucleusness()) {
//	    fmt.Println(nucleus.Vertices)
//	}
//
// Each package-level decomposition runs on a one-shot Engine it closes
// before returning. Serving many callers, hold an Engine yourself: a fixed
// set of shards — each a worker pool with its world bank and scratch —
// behind a free list, so concurrent goroutines issue mixed context-aware
// requests against one long-lived object (see the README's Serving section):
//
//	eng := probnucleus.NewEngine(4, 2) // 4 shards × 2 workers
//	defer eng.Close()
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, _ := eng.Local(ctx, pg, probnucleus.LocalRequest{Theta: 0.3})
//	nuclei, _ := eng.Global(ctx, pg, probnucleus.NucleiRequest{K: 1, Theta: 0.3, Samples: 500})
//
// Serving many graphs, layer a Registry over the engine: graphs register by
// name as immutable prepared artifacts (triangle index enumerated once, at
// registration), repeated queries at the same (graph, θ, mode) are served
// from a keyed LRU cache, and a thundering herd on one hot key computes once
// (see the README's Multi-graph serving section):
//
//	reg := probnucleus.NewRegistry(eng, probnucleus.WithCacheCapacity(128))
//	reg.Put(ctx, "krogan", pg)
//	res, _ := reg.Local(ctx, "krogan", probnucleus.LocalRequest{Theta: 0.3})   // computes, caches
//	res2, _ := reg.Local(ctx, "krogan", probnucleus.LocalRequest{Theta: 0.3})  // cache hit: no peel, no enumeration
//	nuclei, _ := reg.Global(ctx, "krogan", probnucleus.NucleiRequest{K: 1, Theta: 0.3, Samples: 500})
package probnucleus

import (
	"io"

	"probnucleus/internal/artifact"
	"probnucleus/internal/core"
	"probnucleus/internal/dataset"
	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/metrics"
	"probnucleus/internal/obs"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probcore"
	"probnucleus/internal/probgraph"
	"probnucleus/internal/probtruss"
	"probnucleus/internal/registry"
)

// Graph is a probabilistic graph: an undirected simple graph whose edges
// carry independent existence probabilities in (0,1].
type Graph = probgraph.Graph

// ProbEdge is an undirected edge with an existence probability.
type ProbEdge = probgraph.ProbEdge

// Triangle is a 3-clique with vertices in increasing order.
type Triangle = graph.Triangle

// Edge is an undirected vertex pair.
type Edge = graph.Edge

// Stats summarises a dataset (the columns of Table 1 in the paper).
type Stats = probgraph.Stats

// NewGraph builds a probabilistic graph from edges, validating
// probabilities, duplicate edges and self-loops.
func NewGraph(n int, edges []ProbEdge) (*Graph, error) { return probgraph.New(n, edges) }

// ReadEdgeList parses a `u v p` edge list (p optional, default 1). An edge
// list whose vertex ids are too sparse for its edge count is refused with
// ErrInputTooLarge before the graph is built.
func ReadEdgeList(r io.Reader) (*Graph, error) { return probgraph.ReadEdgeList(r) }

// ErrInputTooLarge reports an edge list whose largest vertex id exceeds
// 16 × its edge count + 1023: the graph's arrays are sized by the largest
// id, so such an input would allocate far beyond its own size. Map it to
// HTTP 413.
var ErrInputTooLarge = probgraph.ErrInputTooLarge

// ReadEdgeListFile parses an edge-list file.
func ReadEdgeListFile(path string) (*Graph, error) { return probgraph.ReadEdgeListFile(path) }

// --- Local decomposition ---

// Mode selects how triangle-support tail probabilities are evaluated.
type Mode = core.Mode

// Evaluation modes for LocalDecompose.
const (
	// ModeDP uses the exact Poisson-binomial dynamic program everywhere.
	ModeDP = core.ModeDP
	// ModeAP uses the statistical approximations of Sec. 5.3 with DP
	// fallback; orders of magnitude faster on large, dense graphs with
	// near-identical results (see EXPERIMENTS.md, Table 2).
	ModeAP = core.ModeAP
)

// Options configures LocalDecompose. Options.Workers bounds the worker pool
// used for triangle enumeration and support-tail scoring (0 = all cores,
// 1 = serial); results are byte-identical for every worker count.
type Options = core.Options

// LocalResult carries the per-triangle probabilistic nucleusness scores.
type LocalResult = core.LocalResult

// Nucleus is one maximal ℓ-(k,θ)-nucleus.
type Nucleus = decomp.Nucleus

// LocalDecompose computes the local probabilistic nucleus decomposition of
// pg at threshold θ (Algorithm 1 of the paper).
func LocalDecompose(pg *Graph, theta float64, opts Options) (*LocalResult, error) {
	return core.LocalDecompose(pg, theta, opts)
}

// --- Global and weakly-global decomposition ---

// MCOptions configures the Monte-Carlo estimation used by the global and
// weakly-global algorithms. MCOptions.Workers bounds the sampling worker
// pool (0 = all cores, 1 = serial); possible worlds are drawn from
// chunk-derived PRNGs, so estimates depend only on Seed, never on the
// worker count.
type MCOptions = core.MCOptions

// ProbNucleus is a nucleus found by the global or weakly-global algorithm.
type ProbNucleus = core.ProbNucleus

// GlobalNuclei finds the g-(k,θ)-nuclei of pg (Algorithm 2). The problem is
// #P-hard; the result is a Monte-Carlo approximation with Hoeffding
// guarantees on each tail estimate.
func GlobalNuclei(pg *Graph, k int, theta float64, opts MCOptions) ([]ProbNucleus, error) {
	return core.GlobalNuclei(pg, k, theta, opts)
}

// WeaklyGlobalNuclei finds the w-(k,θ)-nuclei of pg (Algorithm 3). The
// problem is NP-hard; the result is a Monte-Carlo approximation.
func WeaklyGlobalNuclei(pg *Graph, k int, theta float64, opts MCOptions) ([]ProbNucleus, error) {
	return core.WeaklyGlobalNuclei(pg, k, theta, opts)
}

// HoeffdingSampleSize returns the number of Monte-Carlo samples needed for
// an (ε,δ) estimate (Lemma 4).
func HoeffdingSampleSize(eps, delta float64) int { return mc.SampleSize(eps, delta) }

// --- Concurrent serving ---

// Engine is the concurrent-safe serving surface over the three decomposition
// semantics: a fixed set of shards — each owning a persistent worker pool
// and a reusable world-mask bank — dispatched to callers through a free
// list. N goroutines may issue mixed Local/Global/Weak requests
// simultaneously; every method takes a context.Context, and a cancelled
// request returns ctx.Err() promptly while an uncancelled one is
// byte-identical to the package-level functions. A panic inside a request is
// contained (the caller sees ErrInternal, never a crash) and the shard that
// ran it is quarantined and rebuilt, so corruption cannot leak across
// requests; Engine.Health reports capacity and supervision counters.
type Engine = core.Engine

// LocalRequest parameterizes Engine.Local: one ℓ-NuDecomp query. Its
// Validate method reports malformed requests via the sentinel errors below.
type LocalRequest = core.LocalRequest

// NucleiRequest parameterizes Engine.Global and Engine.Weak, unifying the
// (k, θ) arguments and the MCOptions sampling knobs into one validated
// request struct.
type NucleiRequest = core.NucleiRequest

// NewEngine creates an Engine with the given number of shards (< 1 means
// one) of workersPerShard workers each (0 = all cores, 1 = serial). Shards
// bound request concurrency, workersPerShard per-request parallelism;
// serving setups typically pick shards × workersPerShard ≈ GOMAXPROCS.
// Options bound the admission queue (WithMaxQueue) and attach an observer
// (WithObserver).
func NewEngine(shards, workersPerShard int, opts ...EngineOption) *Engine {
	return core.NewEngine(shards, workersPerShard, opts...)
}

// EngineOption configures NewEngine.
type EngineOption = core.EngineOption

// WithMaxQueue bounds admission: at most n requests wait for a free shard;
// request n+1 fails fast with ErrOverloaded instead of queueing (serve it as
// HTTP 503). n = 0 rejects whenever every shard is busy; a negative n — the
// default — queues without bound.
func WithMaxQueue(n int) EngineOption { return core.WithMaxQueue(n) }

// WithObserver attaches an EngineObserver to every stage of the engine:
// request admission/queue-wait/latency per semantics, Monte-Carlo world
// batches, peel rounds, candidate validation, and worker-pool rounds. A nil
// observer (the default) costs nothing on the hot paths.
func WithObserver(o EngineObserver) EngineOption { return core.WithObserver(o) }

// EngineObserver receives engine lifecycle and kernel progress events. All
// methods may be called concurrently; implementations must be cheap and
// allocation-free — they run inside the serving hot paths. EngineMetrics is
// the ready-made aggregating implementation.
type EngineObserver = obs.Observer

// EngineMetrics is an allocation-free EngineObserver aggregating counters
// and power-of-two latency histograms; the zero value is ready to use.
// Attach with WithObserver(new(EngineMetrics)) and read via Snapshot.
type EngineMetrics = obs.Metrics

// EngineSnapshot is a JSON-ready point-in-time copy of EngineMetrics.
type EngineSnapshot = obs.Snapshot

// Sentinel validation errors, matched with errors.Is against anything the
// decomposition entry points or the request Validate methods return.
var (
	// ErrTheta reports a probability threshold θ outside (0,1].
	ErrTheta = core.ErrTheta
	// ErrNegativeK reports a negative nucleus level k.
	ErrNegativeK = core.ErrNegativeK
	// ErrBadSampleSpec reports an unusable Monte-Carlo sample specification:
	// a negative Samples count, or ε/δ outside (0,1] when set.
	ErrBadSampleSpec = core.ErrBadSampleSpec
	// ErrLocalTheta reports a global or weak request whose supplied Local
	// was decomposed at a θ above the request's, which would shrink the
	// candidate space and miss nuclei. A Local at a lower θ is allowed.
	ErrLocalTheta = core.ErrLocalTheta
	// ErrEngineClosed reports a request that was still waiting for a shard
	// when its Engine was closed.
	ErrEngineClosed = core.ErrEngineClosed
	// ErrOverloaded reports a request rejected by a WithMaxQueue admission
	// bound: every shard was busy and the wait queue was full. Map it to
	// HTTP 503 and retry with backoff.
	ErrOverloaded = core.ErrOverloaded
	// ErrDoomed reports a request shed by deadline-aware admission: every
	// shard was busy and the request's remaining deadline was below the
	// observed median service latency for its semantics. Map it to HTTP 503;
	// retry with a longer deadline or after backing off.
	ErrDoomed = core.ErrDoomed
	// ErrInternal reports a request whose decomposition panicked. The engine
	// contained the panic — the process stays up, the shard that ran the
	// request is quarantined and rebuilt — and the caller gets this error
	// instead of a corrupted result. Map it to HTTP 500; retrying the same
	// request will likely panic again.
	ErrInternal = core.ErrInternal
)

// EngineHealth is a point-in-time view of an Engine's serving capacity —
// shards/free/workers, queue depth against its bound, quarantine/rebuild
// counters, and closed state — shaped for readiness endpoints. Read it with
// Engine.Health.
type EngineHealth = core.Health

// --- Prepared artifacts and multi-graph serving ---

// Prepared is the immutable prepare-stage artifact of the split request
// path: a graph's triangle index and 4-clique completion lists, enumerated
// once and shared by every query that consumes it. Build one with Prepare or
// Engine.Prepare and hand it to the *Prepared request variants
// (Engine.LocalPrepared, Engine.GlobalPrepared, Engine.WeakPrepared) — or
// register the graph in a Registry, which manages artifacts by name. A
// Prepared is safe to share across concurrent requests and shards.
type Prepared = core.Prepared

// Prepare enumerates pg's triangle index up front on a fresh pool of the
// given worker count (0 = all cores), returning the reusable artifact.
// Results from prepared-artifact queries are byte-identical to the per-call
// path.
func Prepare(pg *Graph, workers int) (*Prepared, error) { return core.Prepare(pg, workers) }

// SaveArtifact persists a Prepared to path in the versioned "PBNUCART"
// binary format: the CSR probabilistic graph and the triangle index laid out
// as aligned little-endian sections behind checksummed headers, written
// atomically (temp file + rename). It returns the byte size written. A saved
// artifact loads with zero triangle-index rebuilds and yields byte-identical
// results for all three semantics (see the README's Persistent artifacts
// section).
func SaveArtifact(path string, pre *Prepared) (int64, error) { return artifact.Save(path, pre) }

// LoadArtifact reads a persisted prepared artifact back, memory-mapping and
// aliasing its sections without copying where the platform allows (falling
// back to a validating copy elsewhere), and returns the artifact plus its
// file size. Every load verifies checksums and structural invariants:
// corrupt or truncated files fail with an error matching ErrBadArtifact, and
// files from a different format version with ErrArtifactVersion — never a
// panic. On the zero-copy path the file must not be modified or truncated
// while the Prepared is alive, and anything obtained through the Prepared's
// accessors aliases the mapping: keep the Prepared reachable for as long as
// those views are in use. For a file this deployment did not write itself,
// use LoadArtifactVerified.
func LoadArtifact(path string) (*Prepared, int64, error) { return artifact.Load(path) }

// LoadArtifactVerified is LoadArtifact plus the cross-reference checks that
// the checksums and structural pass cannot see: edge symmetry with matching
// probabilities, triangle edges present in the graph, completions closing
// 4-cliques. It costs more than the enumeration-free fast path and is meant
// for ingesting artifacts of unknown provenance — the registry's PutArtifact
// uses it; warm starts from the registry's own directory use LoadArtifact.
// Because the file is untrusted it is read into private memory rather than
// memory-mapped, so the returned Prepared is independent of the file and a
// writer racing the load cannot invalidate the verification.
func LoadArtifactVerified(path string) (*Prepared, int64, error) {
	return artifact.LoadVerified(path)
}

// ArtifactFormatVersion is the on-disk format version SaveArtifact writes
// and LoadArtifact accepts.
const ArtifactFormatVersion = artifact.FormatVersion

// Artifact sentinel errors, matched with errors.Is.
var (
	// ErrBadArtifact reports a corrupt, truncated, or invariant-violating
	// artifact file.
	ErrBadArtifact = artifact.ErrBadArtifact
	// ErrArtifactVersion reports an artifact written by an incompatible
	// format version.
	ErrArtifactVersion = artifact.ErrArtifactVersion
)

// Registry is the multi-graph, multi-tenant serving layer over an Engine:
// named graphs held as prepared artifacts (Put/Get/Delete, versioned on
// replace), a keyed LRU cache of local decomposition results per
// (graph, θ, mode), and singleflight coalescing so concurrent identical
// queries compute once. All methods are safe for concurrent use; results are
// byte-identical to the Engine methods on the same graph.
type Registry = registry.Registry

// NewRegistry builds a Registry serving through eng. The registry does not
// own the engine — close the engine yourself, after the registry's callers
// are done.
func NewRegistry(eng *Engine, opts ...RegistryOption) *Registry {
	return registry.New(eng, opts...)
}

// RegistryOption configures NewRegistry.
type RegistryOption = registry.Option

// WithCacheCapacity bounds the registry's result LRU (default
// DefaultCacheCapacity; n <= 0 disables caching).
func WithCacheCapacity(n int) RegistryOption { return registry.WithCacheCapacity(n) }

// DefaultCacheCapacity is the registry's result-LRU bound when
// WithCacheCapacity is not given.
const DefaultCacheCapacity = registry.DefaultCacheCapacity

// WithArtifactDir makes the registry durable across restarts: every Put/Add
// persists the graph's prepared artifact into dir, Delete removes its files,
// and NewRegistry warm-starts by loading every persisted graph found in dir
// — no re-enumeration on reboot. See also Registry.PutArtifact (register
// straight from a file) and Registry.Snapshot (export every graph's artifact
// to a directory).
func WithArtifactDir(dir string) RegistryOption { return registry.WithArtifactDir(dir) }

// WithRegistryObserver attaches an observer to the registry's cache events
// (hits, misses, evictions, coalesced waits). Pass the engine's
// EngineMetrics so one Snapshot covers the whole request path.
func WithRegistryObserver(o EngineObserver) RegistryOption { return registry.WithObserver(o) }

// GraphHandle is the immutable public view of one registered graph: name,
// version, and size counts.
type GraphHandle = registry.GraphHandle

// RegistryStats is a point-in-time view of a Registry's footprint: graph
// count, cached results against capacity, and in-flight computes.
type RegistryStats = registry.Stats

// Registry sentinel errors, matched with errors.Is.
var (
	// ErrUnknownGraph reports a query or lookup naming an unregistered graph
	// (serve it as HTTP 404).
	ErrUnknownGraph = registry.ErrUnknownGraph
	// ErrDuplicateGraph reports a Registry.Add under a taken name (serve it
	// as HTTP 409); Put replaces instead.
	ErrDuplicateGraph = registry.ErrDuplicateGraph
)

// --- Baselines ---

// CoreResult is a probabilistic (k,η)-core decomposition.
type CoreResult = probcore.Result

// CoreDecompose computes the (k,η)-core decomposition (Bonchi et al.), the
// r=1, s=2 member of the nucleus family.
func CoreDecompose(pg *Graph, eta float64) (*CoreResult, error) {
	return probcore.Decompose(pg, eta)
}

// TrussResult is a probabilistic local (k,γ)-truss decomposition.
type TrussResult = probtruss.Result

// TrussDecompose computes the local (k,γ)-truss decomposition (Huang, Lu,
// Lakshmanan), the r=2, s=3 member of the nucleus family.
func TrussDecompose(pg *Graph, gamma float64) (*TrussResult, error) {
	return probtruss.Decompose(pg, gamma)
}

// --- Metrics ---

// Cohesiveness bundles subgraph quality statistics (Table 3 columns).
type Cohesiveness = metrics.Cohesiveness

// PD returns the probabilistic density of a graph (Eq. 19).
func PD(pg *Graph) float64 { return metrics.PD(pg) }

// PCC returns the probabilistic clustering coefficient (Eq. 20).
func PCC(pg *Graph) float64 { return metrics.PCC(pg) }

// Measure computes vertex/edge counts, PD, and PCC for a subgraph.
func Measure(pg *Graph) Cohesiveness { return metrics.Measure(pg) }

// --- Approximation internals exposed for analysis ---

// Method identifies a tail-approximation method (DP, CLT, Poisson,
// Translated Poisson, Binomial).
type Method = pbd.Method

// Hyper holds the approximation-selection hyperparameters A, B, C, D.
type Hyper = pbd.Hyper

// DefaultHyper is the paper's tuned setting A=200, B=100, C=0.25, D=0.9.
var DefaultHyper = pbd.DefaultHyper

// SupportMaxK returns max{k : Pr[ζ ≥ k] ≥ t} where ζ is the Poisson-binomial
// sum of the given Bernoulli probabilities, evaluated with the given method
// (MethodDP is exact). This is the primitive every peeling step of the
// decomposition answers.
func SupportMaxK(probs []float64, t float64, m Method) int {
	return pbd.MaxKWith(probs, t, m)
}

// ChooseMethod applies the paper's approximation-selection rules (Sec. 5.3)
// to a support-probability vector.
func ChooseMethod(probs []float64, h Hyper) Method { return pbd.Choose(probs, h) }

// --- Datasets ---

// DatasetConfig describes a synthetic dataset recipe.
type DatasetConfig = dataset.Config

// DatasetNames lists the six simulated evaluation datasets in Table 1
// order: krogan, dblp, flickr, pokec, biomine, ljournal.
func DatasetNames() []string { return dataset.Names() }

// LoadDataset returns the generator configuration of a named simulated
// dataset at the given scale (1 = the calibrated default size).
func LoadDataset(name string, scale float64) (DatasetConfig, error) {
	return dataset.Load(name, dataset.Scale(scale))
}

// GenerateDataset builds the probabilistic graph for a dataset config.
func GenerateDataset(cfg DatasetConfig) *Graph { return dataset.Generate(cfg) }

// MustDataset generates a named dataset, panicking on unknown names;
// convenient in examples and benchmarks.
func MustDataset(name string, scale float64) *Graph {
	return dataset.Generate(dataset.MustLoad(name, dataset.Scale(scale)))
}
