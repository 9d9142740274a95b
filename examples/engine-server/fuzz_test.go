package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	pn "probnucleus"
)

// fuzzServer is one shared tiny server for the fuzz targets: requests whose
// parameters fail to parse never reach the engine, so the handler round-trip
// below stays cheap, and building it once keeps the fuzz iteration rate up.
var fuzzServer = &server{
	graph:   "k5",
	eng:     pn.NewEngine(1, 1),
	metrics: new(pn.EngineMetrics),
	timeout: time.Second,
}

// request builds an *http.Request with a raw (possibly malformed) query
// string, exactly as the net/http server would hand it to the handler.
func rawRequest(path, rawQuery string) *http.Request {
	return &http.Request{Method: "GET", URL: &url.URL{Path: path, RawQuery: rawQuery}}
}

// FuzzParseLocalQuery: PR 6's strict parameter parsing must never panic on
// any query string, and every parse failure must surface as a 400 from the
// handler — never a 500, never a silent fallback onto the engine.
func FuzzParseLocalQuery(f *testing.F) {
	for _, seed := range []string{
		"", "theta=0.3", "theta=0.3&mode=ap", "mode=dp",
		"theta=high", "theta=%zz", "theta=1.5", "mode=turbo",
		"theta=0.3&theta=0.9", "theta=+Inf", "theta=NaN", "theta=1e309",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := rawRequest("/local", rawQuery)
		_, err := parseLocalQuery(r) // must not panic
		if err == nil {
			return
		}
		// A parse failure through the full handler must be a 400.
		w := httptest.NewRecorder()
		fuzzServer.handleLocal(w, r)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("query %q: parse error %v served as %d, want 400", rawQuery, err, w.Code)
		}
	})
}

// FuzzParseNucleiQuery: same contract for the /nuclei parameter surface
// (k/theta/samples/eps/delta/seed/semantics).
func FuzzParseNucleiQuery(f *testing.F) {
	for _, seed := range []string{
		"", "k=1&theta=0.3&samples=50", "semantics=weak&samples=10",
		"k=1.5", "samples=10.7&seed=abc", "seed=99999999999999999999",
		"k=-1", "semantics=both", "eps=0.1&delta=0.1", "samples=-5",
		"k=%zz&theta=%zz", "samples=0x10", "seed=1_000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := rawRequest("/nuclei", rawQuery)
		_, _, err := parseNucleiQuery(r) // must not panic
		if err == nil {
			return
		}
		w := httptest.NewRecorder()
		fuzzServer.handleNuclei(w, r)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("query %q: parse error %v served as %d, want 400", rawQuery, err, w.Code)
		}
	})
}
