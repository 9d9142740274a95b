// Package registry layers multi-graph, multi-tenant serving on top of the
// core Engine: named probabilistic graphs held as immutable prepare-stage
// artifacts (core.Prepared), a keyed LRU of local decomposition results per
// (graph, θ, mode), and singleflight coalescing so a thundering herd on one
// hot key computes once.
//
// The registry owns no worker goroutines of its own — every decomposition
// and preparation runs on the wrapped Engine's shards, under the engine's
// admission, cancellation, and fault-containment rules. Replacing a graph
// under a name bumps its version and purges the name's cached results;
// queries already running keep their immutable artifact snapshot, so Put and
// Delete never race a reader over shared mutable state.
package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"probnucleus/internal/core"
	"probnucleus/internal/obs"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

// ErrUnknownGraph is returned by lookups and queries naming a graph the
// registry does not hold (served as 404 by examples/engine-server).
var ErrUnknownGraph = errors.New("registry: unknown graph")

// ErrDuplicateGraph is returned by Add when the name is already registered
// (served as 409 by examples/engine-server); Put replaces instead.
var ErrDuplicateGraph = errors.New("registry: graph already registered")

// Option configures a Registry at construction.
type Option func(*Registry)

// WithCacheCapacity bounds the keyed LRU of cached local results; n <= 0
// disables result caching entirely (every query recomputes, coalesced). The
// default is DefaultCacheCapacity.
func WithCacheCapacity(n int) Option {
	return func(r *Registry) { r.cap = n }
}

// WithObserver attaches o to the registry's cache events — CacheHit,
// CacheMiss, CacheEvict, CacheCoalesce. Pass the same observer the engine
// was built with (obs.Metrics) so one Snapshot reports the whole request
// path. o must be safe for concurrent use.
func WithObserver(o obs.Observer) Option {
	return func(r *Registry) { r.obs = o }
}

// DefaultCacheCapacity is the LRU bound used when WithCacheCapacity is not
// given: enough for a handful of tenants' hot (θ, mode) working sets.
const DefaultCacheCapacity = 64

// GraphHandle is the public, immutable view of one registered graph.
type GraphHandle struct {
	Name string `json:"name"`
	// Version counts registrations under this name: 1 for a fresh name,
	// bumped by every replacing Put. Cached results are keyed by version, so
	// a replaced graph's results can never serve its successor's queries.
	Version   int64 `json:"version"`
	Vertices  int   `json:"vertices"`
	Edges     int   `json:"edges"`
	Triangles int   `json:"triangles"`
}

// Stats is a point-in-time view of the registry's footprint, reported under
// "registry" in the server's /metrics document.
type Stats struct {
	Graphs        int `json:"graphs"`
	CachedResults int `json:"cachedResults"`
	CacheCapacity int `json:"cacheCapacity"`
	InFlight      int `json:"inFlight"`
}

// graphEntry is one registered graph: its prepared artifact and version.
type graphEntry struct {
	pre     *core.Prepared
	version int64
}

// cacheKey identifies one cached local decomposition. Version participates
// so Put/Delete invalidate by construction even if a purge raced; hyper is
// normalized (DP mode ignores it, zero means pbd.DefaultHyper) so equivalent
// requests share a slot.
type cacheKey struct {
	name    string
	version int64
	theta   float64
	mode    core.Mode
	hyper   pbd.Hyper
}

// flight is one in-progress compute for a cacheKey; waiters block on done
// and read res/err, written exactly once before done is closed.
type flight struct {
	done chan struct{}
	res  *core.LocalResult
	err  error
}

// Registry is the named-graph front of an Engine. All methods are safe for
// concurrent use. The registry does not own the engine: closing the engine
// is the caller's job, and a registry whose engine is closed fails queries
// with core.ErrEngineClosed like any other caller.
type Registry struct {
	eng *core.Engine
	obs obs.Observer
	cap int
	dir string // artifact persistence dir; "" = in-memory only

	// fsMu serializes artifact-file writes and unlinks under dir, so
	// concurrent Put/Delete churn cannot interleave a superseded version's
	// save after the current version's cleanup.
	fsMu sync.Mutex

	mu      sync.Mutex
	graphs  map[string]*graphEntry
	lru     *list.List // *cacheEntry values; front = most recently used
	cache   map[cacheKey]*list.Element
	flights map[cacheKey]*flight
}

type cacheEntry struct {
	key cacheKey
	res *core.LocalResult
}

// New builds a registry serving through eng.
func New(eng *core.Engine, opts ...Option) *Registry {
	r := &Registry{
		eng:     eng,
		cap:     DefaultCacheCapacity,
		graphs:  make(map[string]*graphEntry),
		lru:     list.New(),
		cache:   make(map[cacheKey]*list.Element),
		flights: make(map[cacheKey]*flight),
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.dir != "" {
		_ = os.MkdirAll(r.dir, 0o755)
		r.warmStart()
	}
	return r
}

// Put registers pg under name, preparing its artifact on an engine shard.
// An existing graph under the same name is replaced: its version is bumped
// and its cached results purged, while queries already holding the old
// artifact finish against it undisturbed. With an artifact dir configured
// the new version is persisted (and the replaced version's file unlinked)
// before Put returns. A persistence failure is returned as the error with
// the in-memory registration already in effect — the returned handle is
// still the live registration's, so callers can distinguish "not
// registered" (zero handle) from "registered but not durable".
func (r *Registry) Put(ctx context.Context, name string, pg *probgraph.Graph) (GraphHandle, error) {
	if name == "" {
		return GraphHandle{}, fmt.Errorf("registry: empty graph name")
	}
	pre, err := r.eng.Prepare(ctx, pg)
	if err != nil {
		return GraphHandle{}, err
	}
	r.mu.Lock()
	ver := int64(1)
	if old, ok := r.graphs[name]; ok {
		ver = old.version + 1
		r.purgeLocked(name)
	}
	g := &graphEntry{pre: pre, version: ver}
	r.graphs[name] = g
	h := handleOf(name, g)
	r.mu.Unlock()
	if r.dir != "" {
		if err := r.persist(name, g); err != nil {
			return h, err
		}
	}
	return h, nil
}

// Add registers pg under a fresh name, failing with ErrDuplicateGraph when
// the name is taken — the create-only counterpart of Put for callers that
// must not silently replace a tenant's graph (the server's POST /graphs).
// Persistence-failure semantics match Put: the registration is live, and
// its handle is returned together with the error.
func (r *Registry) Add(ctx context.Context, name string, pg *probgraph.Graph) (GraphHandle, error) {
	if name == "" {
		return GraphHandle{}, fmt.Errorf("registry: empty graph name")
	}
	r.mu.Lock()
	_, taken := r.graphs[name]
	r.mu.Unlock()
	if taken {
		return GraphHandle{}, fmt.Errorf("registry: %q: %w", name, ErrDuplicateGraph)
	}
	pre, err := r.eng.Prepare(ctx, pg)
	if err != nil {
		return GraphHandle{}, err
	}
	r.mu.Lock()
	if _, taken := r.graphs[name]; taken {
		// A racing Add won while we prepared; first writer wins.
		r.mu.Unlock()
		return GraphHandle{}, fmt.Errorf("registry: %q: %w", name, ErrDuplicateGraph)
	}
	g := &graphEntry{pre: pre, version: 1}
	r.graphs[name] = g
	h := handleOf(name, g)
	r.mu.Unlock()
	if r.dir != "" {
		if err := r.persist(name, g); err != nil {
			return h, err
		}
	}
	return h, nil
}

// Get returns the handle of a registered graph.
func (r *Registry) Get(name string) (GraphHandle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.graphs[name]
	if !ok {
		return GraphHandle{}, fmt.Errorf("registry: %q: %w", name, ErrUnknownGraph)
	}
	return handleOf(name, g), nil
}

// Delete removes a registered graph, purges its cached results, and — with
// an artifact dir configured — unlinks its persisted files. Queries already
// running against its artifact finish undisturbed.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	if _, ok := r.graphs[name]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("registry: %q: %w", name, ErrUnknownGraph)
	}
	delete(r.graphs, name)
	r.purgeLocked(name)
	r.mu.Unlock()
	if r.dir != "" {
		r.fsMu.Lock()
		r.removeArtifactsLocked(name, 0)
		r.fsMu.Unlock()
	}
	return nil
}

// List returns the handles of every registered graph, sorted by name.
func (r *Registry) List() []GraphHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphHandle, 0, len(r.graphs))
	for name, g := range r.graphs {
		out = append(out, handleOf(name, g))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats snapshots the registry's footprint.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Graphs:        len(r.graphs),
		CachedResults: r.lru.Len(),
		CacheCapacity: r.cap,
		InFlight:      len(r.flights),
	}
}

// Local answers one ℓ-NuDecomp query against a registered graph, serving
// from the keyed result cache when the (graph, θ, mode) was computed before
// — a hit skips triangle enumeration and peeling entirely. Results are
// byte-identical to Engine.LocalPrepared on the graph's artifact. req.MethodCounts is
// tallied only when the request actually computes (a cache hit or coalesced
// wait runs no support queries).
func (r *Registry) Local(ctx context.Context, name string, req core.LocalRequest) (*core.LocalResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	_, res, err := r.localResult(ctx, name, req)
	return res, err
}

// Global answers one g-NuDecomp query against a registered graph. The
// pruning local decomposition comes from the result cache (computed and
// cached on first need), and with it the candidate plan the first query at
// each k published on it; the Monte-Carlo validation itself always runs, on
// the graph's prepared artifact. A caller-supplied req.Local bypasses the
// cache. Results are byte-identical to Engine.GlobalPrepared on the
// graph's artifact.
func (r *Registry) Global(ctx context.Context, name string, req core.NucleiRequest) ([]core.ProbNucleus, error) {
	// Validate before touching the cache so the pinned error order (k before
	// θ) survives the cached path.
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pre, req, err := r.resolveNuclei(ctx, name, req)
	if err != nil {
		return nil, err
	}
	return r.eng.GlobalPrepared(ctx, pre, req)
}

// Weak answers one w-NuDecomp query against a registered graph; see Global.
func (r *Registry) Weak(ctx context.Context, name string, req core.NucleiRequest) ([]core.ProbNucleus, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pre, req, err := r.resolveNuclei(ctx, name, req)
	if err != nil {
		return nil, err
	}
	return r.eng.WeakPrepared(ctx, pre, req)
}

// resolveNuclei resolves the artifact and pruning decomposition a nuclei
// query runs from: the cached exact DP local result at req.Theta (the same
// pruning the kernels compute internally) unless the caller supplied one.
func (r *Registry) resolveNuclei(ctx context.Context, name string, req core.NucleiRequest) (*core.Prepared, core.NucleiRequest, error) {
	if req.Local != nil {
		pre, err := r.prepared(name)
		return pre, req, err
	}
	pre, local, err := r.localResult(ctx, name, core.LocalRequest{Theta: req.Theta, Mode: core.ModeDP})
	if err != nil {
		return nil, req, err
	}
	req.Local = local
	return pre, req, nil
}

// prepared returns the current artifact for name.
func (r *Registry) prepared(name string) (*core.Prepared, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.graphs[name]
	if !ok {
		return nil, fmt.Errorf("registry: %q: %w", name, ErrUnknownGraph)
	}
	return g.pre, nil
}

// localResult serves one local decomposition through the cache: an LRU hit
// returns immediately, an identical in-flight compute is joined
// (singleflight), and otherwise this caller computes on the engine and
// publishes the result. The returned Prepared is the artifact snapshot the
// result was computed from.
func (r *Registry) localResult(ctx context.Context, name string, req core.LocalRequest) (*core.Prepared, *core.LocalResult, error) {
	key := cacheKey{name: name, theta: req.Theta, mode: req.Mode, hyper: req.Hyper}
	if key.mode == core.ModeDP || key.hyper == (pbd.Hyper{}) {
		// DP ignores the hyperparameters, and a zero Hyper means the default:
		// normalize so equivalent requests share one slot.
		key.hyper = pbd.DefaultHyper
	}
	for {
		r.mu.Lock()
		g, ok := r.graphs[name]
		if !ok {
			r.mu.Unlock()
			return nil, nil, fmt.Errorf("registry: %q: %w", name, ErrUnknownGraph)
		}
		key.version = g.version
		if el, ok := r.cache[key]; ok {
			r.lru.MoveToFront(el)
			res := el.Value.(*cacheEntry).res
			r.mu.Unlock()
			if r.obs != nil {
				r.obs.CacheHit()
			}
			return g.pre, res, nil
		}
		if f, ok := r.flights[key]; ok {
			r.mu.Unlock()
			if r.obs != nil {
				r.obs.CacheCoalesce()
			}
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			if f.err == nil {
				return g.pre, f.res, nil
			}
			// The computing caller failed (cancelled, overloaded, panicked…);
			// its error need not apply to this caller, so retry — becoming
			// the computing caller if the herd has drained.
			continue
		}
		f := &flight{done: make(chan struct{})}
		r.flights[key] = f
		r.mu.Unlock()
		if r.obs != nil {
			r.obs.CacheMiss()
		}
		res, err := r.eng.LocalPrepared(ctx, g.pre, req)
		r.mu.Lock()
		delete(r.flights, key)
		f.res, f.err = res, err
		close(f.done)
		if err == nil {
			if cur, ok := r.graphs[name]; ok && cur.version == key.version {
				r.insertLocked(key, res)
			}
		}
		r.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
		return g.pre, res, nil
	}
}

// insertLocked publishes a computed result into the LRU, evicting from the
// cold end past capacity. Caller holds r.mu.
func (r *Registry) insertLocked(key cacheKey, res *core.LocalResult) {
	if r.cap <= 0 {
		return
	}
	if el, ok := r.cache[key]; ok {
		r.lru.MoveToFront(el)
		return
	}
	r.cache[key] = r.lru.PushFront(&cacheEntry{key: key, res: res})
	for r.lru.Len() > r.cap {
		r.evictLocked(r.lru.Back())
	}
}

// purgeLocked evicts every cached result of name. Caller holds r.mu.
func (r *Registry) purgeLocked(name string) {
	for el := r.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).key.name == name {
			r.evictLocked(el)
		}
		el = next
	}
}

// evictLocked removes one LRU element, firing CacheEvict. Caller holds r.mu.
func (r *Registry) evictLocked(el *list.Element) {
	ce := el.Value.(*cacheEntry)
	r.lru.Remove(el)
	delete(r.cache, ce.key)
	if r.obs != nil {
		r.obs.CacheEvict()
	}
}

func handleOf(name string, g *graphEntry) GraphHandle {
	return GraphHandle{
		Name:      name,
		Version:   g.version,
		Vertices:  g.pre.Graph().NumVertices(),
		Edges:     g.pre.Graph().NumEdges(),
		Triangles: g.pre.Triangles(),
	}
}
