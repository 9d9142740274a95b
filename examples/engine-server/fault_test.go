package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	pn "probnucleus"
	"probnucleus/internal/fault"
	"probnucleus/internal/obs"
)

// newFaultyTestServer is newTestServer with a fault injector mounted between
// the engine and its metrics, so tests can script panics into the serving
// path.
func newFaultyTestServer(t *testing.T, shards, maxQueue int, cfg fault.Config) *server {
	t.Helper()
	m := new(pn.EngineMetrics)
	s := &server{
		pre:     preparedK5(),
		eng:     pn.NewEngine(shards, 1, pn.WithMaxQueue(maxQueue), pn.WithObserver(fault.Wrap(m, fault.New(cfg)))),
		metrics: m,
		timeout: 10 * time.Second,
	}
	t.Cleanup(s.eng.Close)
	return s
}

// getHealth decodes /healthz into the typed health view plus the HTTP code.
func getHealth(t *testing.T, h http.Handler) (pn.EngineHealth, int) {
	t.Helper()
	w := get(t, h, "/healthz")
	var hv pn.EngineHealth
	if err := json.Unmarshal(w.Body.Bytes(), &hv); err != nil {
		t.Fatalf("healthz not JSON: %v (body %q)", err, w.Body.String())
	}
	return hv, w.Code
}

// TestHealthz pins the readiness contract: the endpoint reports shard
// capacity, per-shard workers, queue depth against its bound, and the
// supervision counters — 200 while serving, 503 once the engine is closed.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, 2, 8)
	h := s.handler()

	hv, code := getHealth(t, h)
	if code != http.StatusOK {
		t.Fatalf("healthz on a fresh engine = %d, want 200", code)
	}
	want := pn.EngineHealth{Shards: 2, Free: 2, Workers: 1, Queued: 0, MaxQueue: 8}
	if hv != want {
		t.Fatalf("healthz = %+v, want %+v", hv, want)
	}

	// The JSON field names are API: pin them so dashboards don't silently
	// break on a rename.
	var raw map[string]any
	if err := json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shards", "freeShards", "workersPerShard", "queued", "maxQueue", "quarantined", "rebuilt", "closed"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("healthz JSON missing field %q", key)
		}
	}

	s.eng.Close()
	hv, code = getHealth(t, h)
	if code != http.StatusServiceUnavailable || !hv.Closed {
		t.Fatalf("healthz on a closed engine = (%d, closed=%v), want (503, true)", code, hv.Closed)
	}
}

// TestPanicIsolated: a panic inside a decomposition must come back as a 500
// — not kill the process or the test binary — and the server must keep
// serving: the quarantined shard is rebuilt and later requests succeed. The
// healthz supervision counters record the whole episode.
func TestPanicIsolated(t *testing.T) {
	s := newFaultyTestServer(t, 1, 4, fault.Config{Seed: 1, Panic: 1, Limit: 1})
	h := s.handler()

	w := get(t, h, "/local?theta=0.3")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("request under Panic:1 = %d, want 500 (body %q)", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "panic") {
		t.Errorf("500 body %q does not mention the panic", w.Body.String())
	}
	if w.Header().Get("Retry-After") != "" {
		t.Errorf("panic 500 carries Retry-After; retrying a panicking request is not advice to give")
	}

	// The engine rebuilds the quarantined shard asynchronously; wait for
	// capacity to come back via the readiness endpoint.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hv, code := getHealth(t, h)
		if code == http.StatusOK && hv.Rebuilt == 1 && hv.Free == hv.Shards {
			if hv.Quarantined != 1 {
				t.Fatalf("healthz after panic: %+v, want quarantined=1", hv)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never rebuilt: %+v", hv)
		}
		time.Sleep(time.Millisecond)
	}

	// The injector is spent (Limit: 1): the server must serve again.
	if w := get(t, h, "/local?theta=0.3"); w.Code != http.StatusOK {
		t.Fatalf("request after rebuild = %d, want 200 (body %q)", w.Code, w.Body.String())
	}
	// The episode is on the metrics ledger.
	snap := s.metrics.Snapshot()
	if snap.ShardsQuarantined != 1 || snap.ShardsRebuilt != 1 {
		t.Errorf("metrics quarantined/rebuilt = %d/%d, want 1/1", snap.ShardsQuarantined, snap.ShardsRebuilt)
	}
	if got := snap.Requests[obs.SemLocal].Panicked; got != 1 {
		t.Errorf("metrics panicked = %d, want 1", got)
	}
}

// TestRetryAfterFromSnapshot: the 503 Retry-After header derives from the
// observed queue-wait/latency medians — 1s on a cold ledger, the rounded-up
// median under real latencies, clamped at 30s for pathological ones.
func TestRetryAfterFromSnapshot(t *testing.T) {
	s := newTestServer(t, 1, 0)

	if got := s.retryAfter(); got != "1" {
		t.Fatalf("cold-ledger retryAfter = %q, want \"1\"", got)
	}

	// 2.5s observed latencies land in the [2.147s, 4.295s) histogram bucket;
	// the median reports the bucket's upper bound, so Retry-After rounds up
	// to 5 seconds.
	for i := 0; i < 20; i++ {
		s.metrics.RequestFinished(obs.SemGlobal, 2500*time.Millisecond, false)
	}
	if got := s.retryAfter(); got != "5" {
		t.Fatalf("retryAfter with ~2.5s medians = %q, want \"5\"", got)
	}

	// A pathologically slow semantics clamps at the 30s ceiling.
	for i := 0; i < 200; i++ {
		s.metrics.RequestFinished(obs.SemWeak, 40*time.Second, false)
	}
	if got := s.retryAfter(); got != "30" {
		t.Fatalf("retryAfter with 40s medians = %q, want the 30s clamp", got)
	}
}
