// Engine server: a minimal HTTP front end answering concurrent
// decomposition queries over one probnucleus.Engine — the serving shape the
// engine was designed for. Every request checks out a shard under a
// per-request timeout context; cancelled or expired requests return 504 and
// release their shard promptly, malformed parameters are rejected with 400
// via the sentinel errors, admission-bound overloads and deadline-doomed
// requests return 503 with a Retry-After computed from the live queue-wait
// and latency medians, and a panicking decomposition returns 500 while the
// engine quarantines and rebuilds the shard that ran it — the process stays
// up. /metrics exposes the engine's request ledger, latency histograms, and
// registry cache counters as JSON, /healthz its capacity and
// shard-supervision counters, and SIGINT/SIGTERM drain in-flight requests
// before the engine is closed.
//
// The server is multi-graph: a Registry holds named graphs as prepared
// artifacts (triangle index enumerated once, at registration) with a keyed
// LRU of local results, so repeated queries against a registered graph skip
// enumeration entirely and hot (θ, mode) pairs skip peeling too. /graphs
// lists and creates graphs (409 on a duplicate name, 413 on an edge-list
// body over 64 MiB or with vertex ids too sparse for its edge count),
// /graphs/{name} reads or deletes one (404 when unknown), and
// /graphs/{name}/local and /graphs/{name}/nuclei are the per-graph query
// routes. The startup dataset is registered under its own name, and /local
// and /nuclei query that registration, sharing its cached local results and
// their candidate plans with /graphs/{name}/….
//
// -artifacts makes the registry durable: every registered graph's prepared
// artifact is persisted into the directory (versioned binary format, see the
// README's Persistent artifacts section), and a restarted server warm-starts
// from it — every graph found on disk is served again without
// re-enumerating a single triangle, including the startup dataset when its
// name is already persisted: it is then neither generated nor enumerated,
// and a cold start enumerates it once, when it is registered. Artifact
// save/load counters appear in /metrics.
//
// Every connection is bounded in time as well: the server drops a client
// that takes too long to send its headers or its whole request, or idles
// too long between keep-alive requests.
//
// Run it and issue concurrent queries:
//
//	go run ./examples/engine-server -dataset krogan -scale 0.04 &
//	curl 'localhost:8080/local?theta=0.3&mode=ap'
//	curl 'localhost:8080/nuclei?semantics=global&k=1&theta=0.001&samples=100' &
//	curl 'localhost:8080/nuclei?semantics=weak&k=1&theta=0.001&samples=100' &
//	curl 'localhost:8080/graphs'
//	curl -X POST 'localhost:8080/graphs?name=dblp&dataset=dblp&scale=0.02'
//	curl 'localhost:8080/graphs/dblp/local?theta=0.3'          # computes, caches
//	curl 'localhost:8080/graphs/dblp/local?theta=0.3'          # cache hit
//	curl -X DELETE 'localhost:8080/graphs/dblp'
//	curl 'localhost:8080/metrics'
//	curl 'localhost:8080/healthz'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	pn "probnucleus"
)

// server bundles the serving state the handlers close over, so tests can
// build one around an httptest listener without going through main.
type server struct {
	// graph names the startup graph's registration; /local and /nuclei
	// query it.
	graph   string
	eng     *pn.Engine
	reg     *pn.Registry
	metrics *pn.EngineMetrics
	timeout time.Duration
	// maxBody bounds a POST /graphs edge-list body in bytes; larger bodies
	// are refused with 413 before they are parsed.
	maxBody int64
}

// defaultMaxBody is the edge-list body bound of the production server.
const defaultMaxBody = 64 << 20

// timeouts bound how long one client may hold a connection: sending the
// request headers, sending the whole request (headers and body), and idling
// between keep-alive requests. They do not bound handler run time, which
// the per-request timeout alone bounds: once a request has arrived in full
// (at entry for a bodiless one, at its body's EOF otherwise), net/http
// clears the connection's read deadline before it starts watching the
// connection for a client disconnect, so the read timeout passing later
// neither cancels the request context nor cuts the handler off.
type timeouts struct {
	readHeader, read, idle time.Duration
}

var defaultTimeouts = timeouts{readHeader: 5 * time.Second, read: time.Minute, idle: 2 * time.Minute}

// newHTTPServer wraps h in an http.Server with the connection timeouts set,
// so a slow or stalled client cannot hold a connection open indefinitely.
func newHTTPServer(h http.Handler, t timeouts) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		IdleTimeout:       t.idle,
	}
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address")
		name     = flag.String("dataset", "krogan", "simulated dataset to serve")
		scale    = flag.Float64("scale", 0.04, "dataset scale")
		shards   = flag.Int("shards", 2, "engine shards (max concurrent decompositions)")
		workers  = flag.Int("workers", 0, "workers per shard (0 = all cores)")
		maxQueue = flag.Int("maxqueue", 64, "max requests waiting for a shard before 503 (-1 = unbounded)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		cache    = flag.Int("cache", pn.DefaultCacheCapacity, "registry result-cache capacity (0 disables caching)")
		artDir   = flag.String("artifacts", "", "persist prepared-graph artifacts into this directory and warm-start from it on boot")
	)
	flag.Parse()

	metrics := new(pn.EngineMetrics)
	eng := pn.NewEngine(*shards, *workers, pn.WithMaxQueue(*maxQueue), pn.WithObserver(metrics))
	regOpts := []pn.RegistryOption{pn.WithCacheCapacity(*cache), pn.WithRegistryObserver(metrics)}
	if *artDir != "" {
		regOpts = append(regOpts, pn.WithArtifactDir(*artDir))
	}
	srv := &server{
		graph:   *name,
		eng:     eng,
		reg:     pn.NewRegistry(eng, regOpts...),
		metrics: metrics,
		timeout: *timeout,
		maxBody: defaultMaxBody,
	}
	if warm := srv.reg.List(); len(warm) > 0 {
		log.Printf("warm start: %d graph(s) loaded from %s, no enumeration", len(warm), *artDir)
	}
	startup, err := srv.registerStartup(context.Background(), func() *pn.Graph { return pn.MustDataset(*name, *scale) })
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s (%d edges) on http://%s — %d shards × %d workers, queue %d, %v timeout",
		*name, startup.Edges, ln.Addr(), srv.eng.Shards(), srv.eng.Workers(), *maxQueue, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, newHTTPServer(srv.handler(), defaultTimeouts), ln, srv.eng); err != nil {
		log.Fatal(err)
	}
	log.Print("drained and closed")
}

// registerStartup registers the startup graph under s.graph, generating it
// with load, unless the registry already warm-started it from its artifact
// directory: a persisted copy serves the same queries without being
// generated or enumerated, which is the point of -artifacts. It returns the
// registration's handle.
func (s *server) registerStartup(ctx context.Context, load func() *pn.Graph) (pn.GraphHandle, error) {
	if h, err := s.reg.Get(s.graph); err == nil {
		return h, nil
	}
	return s.reg.Put(ctx, s.graph, load())
}

// run serves on ln until ctx is cancelled, then drains in-flight requests
// via http.Server.Shutdown and closes the engine — in that order, so no
// request can observe a closed engine during a graceful exit. The engine is
// closed on every path out, including listener failure.
func run(ctx context.Context, hs *http.Server, ln net.Listener, eng *pn.Engine) error {
	defer eng.Close() // idempotent: harmless if a caller also defers it
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err // listener died; Serve never returns nil here
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return hs.Shutdown(drain)
}

// handler builds the route table over the server's engine and registry. The
// /graphs subtree is dispatched by hand (the module's go directive predates
// ServeMux patterns): /graphs lists and creates, /graphs/{name} reads and
// deletes, /graphs/{name}/local and /graphs/{name}/nuclei query.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/local", s.handleLocal)
	mux.HandleFunc("/nuclei", s.handleNuclei)
	mux.HandleFunc("/graphs", s.handleGraphs)
	mux.HandleFunc("/graphs/", s.handleGraphPath)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// graphName pins the accepted graph names: 1–64 characters of letters,
// digits, dot, underscore, dash. Anything else is a 400, so names are always
// safe to echo into URLs, logs, and JSON.
var graphName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// handleGraphs serves the collection routes: GET lists the registered
// graphs, POST registers a new one — from a named simulated dataset
// (?dataset=krogan&scale=0.04) or from a `u v p` edge list in the request
// body of at most maxBody bytes — answering 409 when the name is taken and
// 413 when the body is too large or names vertex ids too sparse for its
// edge count (pn.ErrInputTooLarge).
func (s *server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, map[string]any{"graphs": s.reg.List()})
	case http.MethodPost:
		s.handleCreateGraph(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if !graphName.MatchString(name) {
		http.Error(w, fmt.Sprintf("name %q must match %s", name, graphName), http.StatusBadRequest)
		return
	}
	var pg *pn.Graph
	if ds := r.URL.Query().Get("dataset"); ds != "" {
		q := query{r: r}
		scale := q.float("scale", 0.04)
		if q.err != nil {
			http.Error(w, q.err.Error(), http.StatusBadRequest)
			return
		}
		cfg, err := pn.LoadDataset(ds, scale)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pg = pn.GenerateDataset(cfg)
	} else {
		var err error
		if pg, err = pn.ReadEdgeList(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, fmt.Sprintf("edge-list body exceeds %d bytes", s.maxBody), http.StatusRequestEntityTooLarge)
				return
			}
			if errors.Is(err, pn.ErrInputTooLarge) {
				http.Error(w, fmt.Sprintf("edge-list body: %v", err), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("edge-list body: %v (or pass ?dataset=)", err), http.StatusBadRequest)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	h, err := s.reg.Add(ctx, name, pg)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, h)
}

// handleGraphPath dispatches the per-graph routes under /graphs/{name}.
func (s *server) handleGraphPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/graphs/")
	name, sub, _ := strings.Cut(rest, "/")
	if !graphName.MatchString(name) {
		http.Error(w, fmt.Sprintf("name %q must match %s", name, graphName), http.StatusBadRequest)
		return
	}
	switch sub {
	case "":
		s.handleGraph(w, r, name)
	case "local":
		s.requireGet(w, r, func() { s.handleGraphLocal(w, r, name) })
	case "nuclei":
		s.requireGet(w, r, func() { s.handleGraphNuclei(w, r, name) })
	default:
		http.Error(w, fmt.Sprintf("unknown graph route %q", sub), http.StatusNotFound)
	}
}

func (s *server) requireGet(w http.ResponseWriter, r *http.Request, serve func()) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	serve()
}

// handleGraph serves one registered graph: GET reads its handle, DELETE
// unregisters it. Unknown names are 404 on both.
func (s *server) handleGraph(w http.ResponseWriter, r *http.Request, name string) {
	switch r.Method {
	case http.MethodGet:
		h, err := s.reg.Get(name)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, h)
	case http.MethodDelete:
		if err := s.reg.Delete(name); err != nil {
			s.writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleLocal is /local: /graphs/{name}/local on the startup graph.
func (s *server) handleLocal(w http.ResponseWriter, r *http.Request) {
	s.handleGraphLocal(w, r, s.graph)
}

// handleGraphLocal is /graphs/{name}/local: repeated queries at the same
// (θ, mode) are cache hits that run no decomposition at all.
func (s *server) handleGraphLocal(w http.ResponseWriter, r *http.Request, name string) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	req, err := parseLocalQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.reg.Local(ctx, name, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	maxK := res.MaxNucleusness()
	writeJSON(w, map[string]any{
		"graph":          name,
		"theta":          res.Theta,
		"triangles":      len(res.Nucleusness),
		"maxNucleusness": maxK,
		"nucleiAtMax":    len(res.NucleiForK(maxK)),
	})
}

// handleNuclei is /nuclei: /graphs/{name}/nuclei on the startup graph.
func (s *server) handleNuclei(w http.ResponseWriter, r *http.Request) {
	s.handleGraphNuclei(w, r, s.graph)
}

// handleGraphNuclei is /graphs/{name}/nuclei: the pruning local
// decomposition and its candidate plans come from the result cache and the
// Monte-Carlo validation runs on the graph's prepared artifact, never
// re-enumerating triangles.
func (s *server) handleGraphNuclei(w http.ResponseWriter, r *http.Request, name string) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	req, sem, err := parseNucleiQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var nuclei []pn.ProbNucleus
	if sem == "weak" {
		nuclei, err = s.reg.Weak(ctx, name, req)
	} else {
		nuclei, err = s.reg.Global(ctx, name, req)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"graph": name, "k": req.K, "theta": req.Theta, "nuclei": nucleusSummaries(nuclei),
	})
}

func nucleusSummaries(nuclei []pn.ProbNucleus) []map[string]any {
	summaries := make([]map[string]any, len(nuclei))
	for i, n := range nuclei {
		summaries[i] = map[string]any{
			"vertices":  len(n.Vertices),
			"edges":     len(n.Edges),
			"triangles": len(n.Triangles),
			"minProb":   n.MinProb,
		}
	}
	return summaries
}

// parseLocalQuery builds the /local request from URL parameters; any
// malformed parameter is an error (served as 400), never a silent default.
func parseLocalQuery(r *http.Request) (pn.LocalRequest, error) {
	q := query{r: r}
	req := pn.LocalRequest{Theta: q.float("theta", 0.3)}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "dp":
		req.Mode = pn.ModeDP
	case "ap":
		req.Mode = pn.ModeAP
	default:
		q.fail("mode must be dp or ap, got %q", mode)
	}
	return req, q.err
}

// parseNucleiQuery builds the /nuclei request and resolved semantics
// ("global" or "weak") from URL parameters; any malformed parameter is an
// error (served as 400), never a silent default.
func parseNucleiQuery(r *http.Request) (pn.NucleiRequest, string, error) {
	q := query{r: r}
	req := pn.NucleiRequest{
		K:         q.int("k", 1),
		Theta:     q.float("theta", 0.3),
		Samples:   q.int("samples", 0),
		Eps:       q.float("eps", 0),
		Delta:     q.float("delta", 0),
		Seed:      q.int64("seed", 1),
		Window:    q.int("window", 0),
		MemBudget: q.int64("membudget", 0),
	}
	sem := r.URL.Query().Get("semantics")
	switch sem {
	case "":
		sem = "global"
	case "global", "weak":
	default:
		q.fail("semantics must be global or weak, got %q", sem)
	}
	return req, sem, q.err
}

// handleMetrics serves a point-in-time snapshot of the engine's observer —
// per-semantics request ledgers with queue-wait and latency histograms plus
// kernel progress and cache counters — with the registry's graph/cache
// summary under "registry". The engine snapshot stays at the top level
// (embedded, not nested) so existing scrapers keep decoding it unchanged.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		pn.EngineSnapshot
		Registry pn.RegistryStats `json:"registry"`
	}{s.metrics.Snapshot(), s.reg.Stats()})
}

// handleHealthz serves the engine's readiness: shard capacity, queue depth
// against its bound, and the quarantine/rebuild supervision counters. A
// closed engine answers 503 so load balancers stop routing to a draining
// process; everything else — including an engine mid-rebuild, which still
// serves on its remaining shards — is 200.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.eng.Health()
	w.Header().Set("Content-Type", "application/json")
	if h.Closed {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(h); err != nil {
		log.Printf("encode healthz: %v", err)
	}
}

// retryAfter estimates, from the live metrics snapshot, how long a rejected
// client should wait before retrying: the worst per-semantics median
// queue-wait plus median service latency, rounded up to whole seconds and
// clamped to [1, 30]. A cold ledger (no finished requests yet) yields the
// 1-second floor.
func (s *server) retryAfter() string {
	snap := s.metrics.Snapshot()
	var worstMs float64
	for _, req := range snap.Requests {
		if req.Latency.Count == 0 {
			continue
		}
		if ms := req.QueueWait.P50Ms + req.Latency.P50Ms; ms > worstMs {
			worstMs = ms
		}
	}
	secs := int(math.Ceil(worstMs / 1000))
	if secs < 1 {
		secs = 1
	} else if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// writeError maps engine failures onto HTTP statuses: validation failures
// (the sentinel errors) are the client's fault, expired or abandoned
// contexts are timeouts, a request the engine refused to run — overload,
// deadline-doomed, or a closing engine — is a 503 whose Retry-After comes
// from the observed queue-wait/latency medians, and a contained panic
// (ErrInternal) is a 500 without retry advice: the engine already
// quarantined the shard and retrying the same request will likely panic
// again.
func (s *server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pn.ErrTheta), errors.Is(err, pn.ErrNegativeK), errors.Is(err, pn.ErrBadSampleSpec):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, pn.ErrUnknownGraph):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, pn.ErrDuplicateGraph):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, pn.ErrOverloaded), errors.Is(err, pn.ErrEngineClosed), errors.Is(err, pn.ErrDoomed):
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, pn.ErrInternal):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

// query parses URL parameters, remembering the first failure so a typo'd
// parameter becomes a 400 instead of being silently replaced by its default.
// Integer parameters are parsed strictly: "1.5" or an overflowing value is a
// 400, never a silent truncation.
type query struct {
	r   *http.Request
	err error
}

func (q *query) float(key string, def float64) float64 {
	s := q.r.URL.Query().Get(key)
	if s == "" {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		q.fail("parameter %s=%q is not a number", key, s)
		return def
	}
	return v
}

func (q *query) int(key string, def int) int {
	v := q.int64(key, int64(def))
	if int64(int(v)) != v {
		q.fail("parameter %s=%d overflows int", key, v)
		return def
	}
	return int(v)
}

func (q *query) int64(key string, def int64) int64 {
	s := q.r.URL.Query().Get(key)
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		q.fail("parameter %s=%q is not an integer", key, s)
		return def
	}
	return v
}

func (q *query) fail(format string, args ...any) {
	if q.err == nil {
		q.err = fmt.Errorf(format, args...)
	}
}
