package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	pn "probnucleus"
)

// newTestServer builds a server over a tiny complete-ish graph so handler
// tests run in microseconds. maxQueue configures admission; shards bounds
// concurrency.
func newTestServer(t *testing.T, shards, maxQueue int) *server {
	t.Helper()
	m := new(pn.EngineMetrics)
	eng := pn.NewEngine(shards, 1, pn.WithMaxQueue(maxQueue), pn.WithObserver(m))
	s := &server{
		pre:     preparedK5(),
		eng:     eng,
		reg:     pn.NewRegistry(eng, pn.WithRegistryObserver(m)),
		metrics: m,
		timeout: 10 * time.Second,
		maxBody: defaultMaxBody,
	}
	if _, err := s.reg.Put(context.Background(), "k5", s.pre.Graph()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.eng.Close)
	return s
}

// preparedK5 is the test servers' startup graph, prepared: K5 with uniform
// probability 0.9, where every triangle sits in several 4-cliques, so all
// three semantics return non-empty answers quickly. It is prepared off any
// server engine, so a fault-injecting observer sees only the requests.
func preparedK5() *pn.Prepared {
	var edges []pn.ProbEdge
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, pn.ProbEdge{U: u, V: v, P: 0.9})
		}
	}
	pg, err := pn.NewGraph(5, edges)
	if err != nil {
		panic(err)
	}
	pre, err := pn.Prepare(pg, 1)
	if err != nil {
		panic(err)
	}
	return pre
}

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	return do(t, h, "GET", target, "")
}

func do(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, rd))
	return w
}

// TestBadParameters: malformed query parameters are the client's fault —
// every one must be a 400 with a message naming the parameter, never a
// silent fallback to the default or a truncated integer.
func TestBadParameters(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()
	cases := []struct {
		name, target, wantInBody string
	}{
		{"unknown mode", "/local?mode=turbo", "mode must be dp or ap"},
		{"fractional k", "/nuclei?k=1.5&samples=10", "not an integer"},
		{"fractional samples", "/nuclei?samples=10.7", "not an integer"},
		{"non-numeric seed", "/nuclei?samples=10&seed=abc", "not an integer"},
		{"overflowing seed", "/nuclei?samples=10&seed=99999999999999999999", "not an integer"},
		{"non-numeric theta", "/local?theta=high", "not a number"},
		{"unknown semantics", "/nuclei?semantics=both&samples=10", "semantics must be global or weak"},
		{"negative k", "/nuclei?k=-1&samples=10", "negative"},
		{"theta out of range", "/local?theta=1.5", "theta"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := get(t, h, c.target)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("GET %s = %d, want 400 (body %q)", c.target, w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), c.wantInBody) {
				t.Errorf("GET %s body %q does not mention %q", c.target, w.Body.String(), c.wantInBody)
			}
		})
	}
}

// TestOverflowingSampleCount: a sample count no int32 world counter can
// hold — an explicit samples past math.MaxInt32, or one implied by a tiny
// eps — is the client's fault and a 400 on every nuclei route and for both
// semantics, not a 500 from the kernel or an empty 200.
func TestOverflowingSampleCount(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()
	for _, route := range []string{"/nuclei", "/graphs/k5/nuclei"} {
		for _, sem := range []string{"global", "weak"} {
			for _, params := range []string{"eps=1e-10", "samples=2147483648"} {
				target := route + "?k=1&theta=0.1&semantics=" + sem + "&" + params
				w := get(t, h, target)
				if w.Code != http.StatusBadRequest {
					t.Errorf("GET %s = %d, want 400 (body %q)", target, w.Code, w.Body.String())
				} else if !strings.Contains(w.Body.String(), "samples") {
					t.Errorf("GET %s body %q does not mention samples", target, w.Body.String())
				}
			}
		}
	}
}

// TestGoodRequests: the happy paths answer 200 with well-formed JSON for
// all three semantics, and integer parameters parse strictly but correctly.
func TestGoodRequests(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()
	for _, target := range []string{
		"/local?theta=0.3",
		"/local?theta=0.3&mode=ap",
		"/local?theta=0.3&mode=dp",
		"/nuclei?k=1&theta=0.3&samples=50&seed=7",
		"/nuclei?semantics=weak&k=1&theta=0.3&samples=50",
	} {
		w := get(t, h, target)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, body %q", target, w.Code, w.Body.String())
		}
		var v map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", target, err)
		}
	}
}

// TestStartupGraphPreparedOnce: /local and /nuclei run from the startup
// graph's artifact, prepared before the first request, so repeated queries
// of every semantics build no triangle index.
func TestStartupGraphPreparedOnce(t *testing.T) {
	s := newTestServer(t, 1, -1)
	h := s.handler()
	builds := s.metrics.Snapshot().IndexBuilds
	for i := 0; i < 3; i++ {
		for _, target := range []string{
			"/local?theta=0.3",
			"/local?theta=0.3&mode=ap",
			"/nuclei?k=1&theta=0.3&samples=20",
			"/nuclei?semantics=weak&k=1&theta=0.3&samples=20",
		} {
			if w := get(t, h, target); w.Code != http.StatusOK {
				t.Fatalf("GET %s = %d, body %q", target, w.Code, w.Body.String())
			}
		}
	}
	if got := s.metrics.Snapshot().IndexBuilds; got != builds {
		t.Fatalf("index builds went from %d at startup to %d after 12 queries, want no change", builds, got)
	}
}

// TestExpiredDeadline: a request arriving with its context already expired
// is a 504, not a 500 — the timeout mapping the serving loop relies on.
func TestExpiredDeadline(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/local?theta=0.3", nil).WithContext(ctx))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired request = %d, want 504 (body %q)", w.Code, w.Body.String())
	}
}

// TestOverloaded: with one shard and a zero-length admission queue, a
// request arriving while the shard is busy gets a retryable 503. The shard
// is held by a request whose context we control, so the test is
// deterministic: poll until the holder is inside the engine, observe the
// 503, then release.
func TestOverloaded(t *testing.T) {
	s := newTestServer(t, 1, 0)
	h := s.handler()

	big, err := s.eng.Prepare(context.Background(), pn.MustDataset("krogan", 0.04))
	if err != nil {
		t.Fatal(err)
	}
	holdCtx, release := context.WithCancel(context.Background())
	defer release()
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		// Hold the only shard through the engine until released: a request
		// over a graph big enough to run for many seconds uncancelled. The
		// cancellation error is expected and discarded.
		s.eng.GlobalPrepared(holdCtx, big, pn.NucleiRequest{K: 1, Theta: 0.001, Samples: 4000, Seed: 1}) //nolint:errcheck
	}()

	// Wait until the holder has actually checked out the shard — visible on
	// the metrics ledger as a started global request. Probing with HTTP
	// requests instead would race the holder for the shard and could reject
	// the holder itself.
	for deadline := time.Now().Add(30 * time.Second); ; {
		started := int64(0)
		for _, r := range s.metrics.Snapshot().Requests {
			if r.Semantics == "global" {
				started = r.Started
			}
		}
		if started > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("holder never checked out the shard")
		}
		time.Sleep(time.Millisecond)
	}

	// Saturated: a cheap request is rejected with a retryable 503.
	w := get(t, h, "/local?theta=0.3")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated engine returned %d, want 503 (body %q)", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "overloaded") {
		t.Errorf("503 body %q does not mention overload", w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	release()
	<-holderDone

	// Shard released: the engine serves again.
	if w := get(t, h, "/local?theta=0.3"); w.Code != http.StatusOK {
		t.Fatalf("after release: %d, want 200 (body %q)", w.Code, w.Body.String())
	}
	// The rejection is on the metrics ledger.
	var snap pn.EngineSnapshot
	if err := json.Unmarshal(get(t, h, "/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range snap.Requests {
		total += r.Rejected["overload"]
	}
	if total == 0 {
		t.Error("metrics snapshot shows no overload rejections")
	}
}

// TestMetricsEndpoint: /metrics returns a JSON snapshot whose ledger
// reflects served traffic.
func TestMetricsEndpoint(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()
	for i := 0; i < 3; i++ {
		if w := get(t, h, "/local?theta=0.3"); w.Code != http.StatusOK {
			t.Fatal(w.Body.String())
		}
	}
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatal(w.Body.String())
	}
	var snap pn.EngineSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	found := false
	for _, r := range snap.Requests {
		if r.Semantics == "local" {
			found = true
			if r.Finished != 3 || r.Failed != 0 {
				t.Errorf("local ledger finished=%d failed=%d, want 3/0", r.Finished, r.Failed)
			}
			if r.Latency.Count != 3 {
				t.Errorf("local latency samples = %d, want 3", r.Latency.Count)
			}
		}
	}
	if !found {
		t.Fatalf("no local entry in metrics snapshot: %s", w.Body.String())
	}
}

// TestGraphRoutes: the /graphs CRUD round trip. The startup graph is listed,
// a posted edge list becomes a queryable graph with a handle reporting its
// prepared footprint, and a deleted graph answers 404 afterwards.
func TestGraphRoutes(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()

	// The startup graph is registered and listed.
	w := get(t, h, "/graphs")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /graphs = %d, body %q", w.Code, w.Body.String())
	}
	var list struct {
		Graphs []pn.GraphHandle `json:"graphs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "k5" {
		t.Fatalf("startup listing = %+v, want exactly [k5]", list.Graphs)
	}

	// POST an edge-list body: one triangle.
	w = do(t, h, "POST", "/graphs?name=tri", "0 1 0.9\n1 2 0.8\n0 2 0.7\n")
	if w.Code != http.StatusCreated {
		t.Fatalf("POST /graphs?name=tri = %d, body %q", w.Code, w.Body.String())
	}
	var handle pn.GraphHandle
	if err := json.Unmarshal(w.Body.Bytes(), &handle); err != nil {
		t.Fatal(err)
	}
	if handle.Name != "tri" || handle.Edges != 3 || handle.Triangles != 1 || handle.Version != 1 {
		t.Fatalf("created handle = %+v, want tri with 3 edges, 1 triangle, version 1", handle)
	}

	// The new graph reads back and serves queries.
	if w := get(t, h, "/graphs/tri"); w.Code != http.StatusOK {
		t.Fatalf("GET /graphs/tri = %d, body %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/graphs/tri/local?theta=0.3"); w.Code != http.StatusOK {
		t.Fatalf("GET /graphs/tri/local = %d, body %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/graphs/k5/nuclei?k=1&theta=0.3&samples=50&seed=7"); w.Code != http.StatusOK {
		t.Fatalf("GET /graphs/k5/nuclei = %d, body %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/graphs/k5/nuclei?semantics=weak&k=1&theta=0.3&samples=50"); w.Code != http.StatusOK {
		t.Fatalf("GET /graphs/k5/nuclei weak = %d, body %q", w.Code, w.Body.String())
	}

	// DELETE unregisters; the graph and its query routes turn 404.
	if w := do(t, h, "DELETE", "/graphs/tri", ""); w.Code != http.StatusNoContent {
		t.Fatalf("DELETE /graphs/tri = %d, body %q", w.Code, w.Body.String())
	}
	for _, target := range []string{"/graphs/tri", "/graphs/tri/local?theta=0.3"} {
		if w := get(t, h, target); w.Code != http.StatusNotFound {
			t.Fatalf("after delete, GET %s = %d, want 404 (body %q)", target, w.Code, w.Body.String())
		}
	}
}

// TestGraphRouteErrors: the strict-parsing sweep for the /graphs subtree.
// Unknown graphs are 404, duplicate names 409, malformed names and
// parameters 400, and wrong methods 405 — never a silent fallback.
func TestGraphRouteErrors(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()
	cases := []struct {
		name, method, target, body string
		wantCode                   int
		wantInBody                 string
	}{
		{"unknown graph read", "GET", "/graphs/nope", "", 404, "unknown graph"},
		{"unknown graph delete", "DELETE", "/graphs/nope", "", 404, "unknown graph"},
		{"unknown graph local", "GET", "/graphs/nope/local?theta=0.3", "", 404, "unknown graph"},
		{"unknown graph nuclei", "GET", "/graphs/nope/nuclei?samples=10", "", 404, "unknown graph"},
		{"duplicate name", "POST", "/graphs?name=k5", "0 1 0.9\n", 409, "already registered"},
		{"empty name", "POST", "/graphs", "0 1 0.9\n", 400, "must match"},
		{"bad name char", "POST", "/graphs?name=no!good", "0 1 0.9\n", 400, "must match"},
		{"overlong name", "GET", "/graphs/" + strings.Repeat("x", 65), "", 400, "must match"},
		{"bad path name", "GET", "/graphs/no!good/local?theta=0.3", "", 400, "must match"},
		{"malformed theta", "GET", "/graphs/k5/local?theta=high", "", 400, "not a number"},
		{"theta out of range", "GET", "/graphs/k5/local?theta=1.5", "", 400, "theta"},
		{"malformed k", "GET", "/graphs/k5/nuclei?k=1.5&samples=10", "", 400, "not an integer"},
		{"negative k", "GET", "/graphs/k5/nuclei?k=-1&samples=10", "", 400, "negative"},
		{"bad mode", "GET", "/graphs/k5/local?mode=turbo", "", 400, "mode must be dp or ap"},
		{"bad dataset", "POST", "/graphs?name=fresh&dataset=nosuch", "", 400, "dataset"},
		{"bad edge list", "POST", "/graphs?name=fresh", "zero one 0.9\n", 400, "edge-list body"},
		{"unknown subroute", "GET", "/graphs/k5/explode", "", 404, "unknown graph route"},
		{"collection put", "PUT", "/graphs", "", 405, "method not allowed"},
		{"query post", "POST", "/graphs/k5/local?theta=0.3", "", 405, "method not allowed"},
		{"graph post", "POST", "/graphs/k5", "", 405, "method not allowed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, h, c.method, c.target, c.body)
			if w.Code != c.wantCode {
				t.Fatalf("%s %s = %d, want %d (body %q)", c.method, c.target, w.Code, c.wantCode, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), c.wantInBody) {
				t.Errorf("%s %s body %q does not mention %q", c.method, c.target, w.Body.String(), c.wantInBody)
			}
		})
	}
}

// TestRegistryCacheOnServer: repeated queries against a registered graph are
// byte-identical cache hits that rebuild nothing, and /metrics reports both
// the registry footprint and the cache counters — the top-level engine
// snapshot shape staying as existing scrapers expect it (TestMetricsEndpoint
// pins that separately).
func TestRegistryCacheOnServer(t *testing.T) {
	h := newTestServer(t, 1, -1).handler()

	first := get(t, h, "/graphs/k5/local?theta=0.3")
	if first.Code != http.StatusOK {
		t.Fatalf("cold query = %d, body %q", first.Code, first.Body.String())
	}
	second := get(t, h, "/graphs/k5/local?theta=0.3")
	if second.Code != http.StatusOK {
		t.Fatalf("warm query = %d, body %q", second.Code, second.Body.String())
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cache hit changed the response:\ncold %s\nwarm %s", first.Body.String(), second.Body.String())
	}

	var doc struct {
		pn.EngineSnapshot
		Registry pn.RegistryStats `json:"registry"`
	}
	if err := json.Unmarshal(get(t, h, "/metrics").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Registry.Graphs != 1 || doc.Registry.CachedResults != 1 {
		t.Errorf("registry stats = %+v, want 1 graph with 1 cached result", doc.Registry)
	}
	if doc.CacheHits != 1 || doc.CacheMisses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", doc.CacheHits, doc.CacheMisses)
	}
	// Exactly one index build: registration. The queries reused it.
	if doc.IndexBuilds != 1 {
		t.Errorf("index builds = %d, want 1 (registration only)", doc.IndexBuilds)
	}
}

// TestGracefulShutdown: cancelling the serve context drains in-flight
// requests and closes the engine exactly once — the lifecycle bug this
// example used to have (log.Fatal skipping the deferred Close) must stay
// fixed. A second Close is a no-op, and post-shutdown engine use reports
// ErrEngineClosed.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, 1, -1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, &http.Server{Handler: s.handler()}, ln, s.eng) }()

	// The server answers while running…
	resp, err := http.Get("http://" + ln.Addr().String() + "/local?theta=0.3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live server returned %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}

	// run closed the engine on its way out; the cleanup Close and any
	// explicit repeats must be no-ops, not double-close panics.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.eng.Close()
		}()
	}
	wg.Wait()
	if _, err := s.eng.Prepare(context.Background(), s.pre.Graph()); !errors.Is(err, pn.ErrEngineClosed) {
		t.Fatalf("post-shutdown prepare returned %v, want ErrEngineClosed", err)
	}
	if _, err := s.eng.LocalPrepared(context.Background(), s.pre, pn.LocalRequest{Theta: 0.3}); !errors.Is(err, pn.ErrEngineClosed) {
		t.Fatalf("post-shutdown request returned %v, want ErrEngineClosed", err)
	}
}

// TestArtifactDirWarmStart: a server built with an artifact directory
// persists POSTed graphs, and a second server over the same directory serves
// them straight from disk — the same query answers, /metrics reporting the
// loads and zero index builds. This pins the -artifacts flag's whole
// lifecycle at the HTTP surface.
func TestArtifactDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	cold := newTestServer(t, 1, -1)
	cold.reg = pn.NewRegistry(cold.eng,
		pn.WithRegistryObserver(cold.metrics), pn.WithArtifactDir(dir))
	h := cold.handler()
	if w := do(t, h, "POST", "/graphs?name=posted", "0 1 0.9\n0 2 0.9\n1 2 0.9\n"); w.Code != http.StatusCreated {
		t.Fatalf("POST /graphs = %d, body %q", w.Code, w.Body.String())
	}
	coldAnswer := get(t, h, "/graphs/posted/local?theta=0.3")
	if coldAnswer.Code != http.StatusOK {
		t.Fatalf("cold query = %d", coldAnswer.Code)
	}

	// "Restart": a fresh engine + registry over the same directory.
	m := new(pn.EngineMetrics)
	eng := pn.NewEngine(1, 1, pn.WithObserver(m))
	t.Cleanup(eng.Close)
	warm := &server{
		pre:     cold.pre,
		eng:     eng,
		reg:     pn.NewRegistry(eng, pn.WithRegistryObserver(m), pn.WithArtifactDir(dir)),
		metrics: m,
		timeout: 10 * time.Second,
	}
	wh := warm.handler()
	if g := get(t, wh, "/graphs/posted"); g.Code != http.StatusOK {
		t.Fatalf("warm-started graph lookup = %d, body %q", g.Code, g.Body.String())
	}
	warmAnswer := get(t, wh, "/graphs/posted/local?theta=0.3")
	if warmAnswer.Code != http.StatusOK {
		t.Fatalf("warm query = %d", warmAnswer.Code)
	}
	if coldAnswer.Body.String() != warmAnswer.Body.String() {
		t.Errorf("warm-started answer differs:\ncold %s\nwarm %s",
			coldAnswer.Body.String(), warmAnswer.Body.String())
	}
	var doc pn.EngineSnapshot
	if err := json.Unmarshal(get(t, wh, "/metrics").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.IndexBuilds != 0 {
		t.Errorf("warm server index builds = %d, want 0 (artifact load only)", doc.IndexBuilds)
	}
	if doc.ArtifactLoads == 0 {
		t.Error("warm server reported no artifact loads in /metrics")
	}
}

// TestCreateGraphBodyLimit: an edge-list body over the server's bound, or
// one whose vertex ids are too sparse for its edge count, is refused with
// 413 and registers nothing; a body within both bounds registers.
func TestCreateGraphBodyLimit(t *testing.T) {
	s := newTestServer(t, 1, -1)
	s.maxBody = 64
	h := s.handler()
	w := do(t, h, "POST", "/graphs?name=big", strings.Repeat("0 1 0.9\n", 100))
	if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "exceeds 64 bytes") {
		t.Fatalf("oversized body: %d %q, want 413", w.Code, w.Body.String())
	}
	if _, err := s.reg.Get("big"); err == nil {
		t.Fatal("oversized body was registered")
	}
	w = do(t, h, "POST", "/graphs?name=sparse", "0 2147483646 0.5\n")
	if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "input too large") {
		t.Fatalf("sparse vertex ids: %d %q, want 413", w.Code, w.Body.String())
	}
	if _, err := s.reg.Get("sparse"); err == nil {
		t.Fatal("sparse-id body was registered")
	}
	w = do(t, h, "POST", "/graphs?name=small", "0 1 0.9\n1 2 0.8\n0 2 0.7\n")
	if w.Code != http.StatusCreated {
		t.Fatalf("body within the bound: %d %q, want 201", w.Code, w.Body.String())
	}
}

// TestServerTimeouts: the production server sets every connection timeout,
// and they hold on a live server — a client that stalls mid-headers, stalls
// mid-body, or idles on a kept-alive connection is disconnected once its
// bound passes, instead of holding the connection until it gives up — while
// a handler that runs past the read timeout, once its request has arrived,
// keeps its context and answers.
func TestServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler(), defaultTimeouts)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("server timeouts unset: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}

	s := newTestServer(t, 1, -1)
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer(s.handler(), timeouts{
		readHeader: 100 * time.Millisecond,
		read:       300 * time.Millisecond,
		idle:       200 * time.Millisecond,
	})
	ts.Start()
	defer ts.Close()
	const patience = 5 * time.Second

	// dropped reports whether the server closes conn (after sending whatever
	// response it sends) within patience, returning what it sent.
	dropped := func(t *testing.T, conn net.Conn) string {
		t.Helper()
		if err := conn.SetReadDeadline(time.Now().Add(patience)); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("connection still open after %v: %v", patience, err)
		}
		return string(got)
	}
	dial := func(t *testing.T, req string) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	t.Run("stalled headers", func(t *testing.T) {
		dropped(t, dial(t, "GET /healthz HTTP/1.1\r\nHost: x\r\n"))
	})
	t.Run("stalled body", func(t *testing.T) {
		got := dropped(t, dial(t, "POST /graphs?name=slow HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n0 1 0.9\n"))
		if strings.Contains(got, "201 Created") {
			t.Fatalf("stalled body registered a graph: %q", got)
		}
		if _, err := s.reg.Get("slow"); err == nil {
			t.Fatal("stalled body was registered")
		}
	})
	t.Run("handler outlives read timeout", func(t *testing.T) {
		const read = 100 * time.Millisecond
		slow := httptest.NewUnstartedServer(nil)
		slow.Config = newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			select {
			case <-time.After(4 * read):
				w.Write(body)
			case <-r.Context().Done():
				http.Error(w, "request context cancelled", http.StatusGatewayTimeout)
			}
		}), timeouts{readHeader: read, read: read, idle: read})
		slow.Start()
		defer slow.Close()
		for _, body := range []string{"", "0 1 0.9\n"} {
			var rd io.Reader
			if body != "" {
				rd = strings.NewReader(body)
			}
			resp, err := http.Post(slow.URL, "text/plain", rd)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(got) != body {
				t.Fatalf("body %q: %d %q; want 200 echoing the body", body, resp.StatusCode, got)
			}
		}
	})
	t.Run("idle keep-alive", func(t *testing.T) {
		conn := dial(t, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("first request: %d, close=%v; want a kept-alive 200", resp.StatusCode, resp.Close)
		}
		if err := conn.SetReadDeadline(time.Now().Add(patience)); err != nil {
			t.Fatal(err)
		}
		if n, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("idle connection read %v, %v; want EOF once the idle timeout passes", n, err)
		}
	})
}
