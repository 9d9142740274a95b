package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	pn "probnucleus"
)

// store holds the on-disk state a warm-starting workload begins from. It is
// built once per process, outside every timed section.
type store struct {
	warmDir   string            // registry artifact dir the warm start loads
	artifacts map[string]string // per graph, a saved artifact PutArtifact ingests
}

// prepareStore prepares every input graph, saves it as an artifact, and
// registers the saved files into a fresh registry artifact dir, so a later
// warm start finds them there exactly as a restarted server would.
func prepareStore(in *inputs, dir string, tr *tracer) (*store, error) {
	st := &store{warmDir: filepath.Join(dir, "registry"), artifacts: make(map[string]string)}
	if err := os.MkdirAll(filepath.Join(dir, "src"), 0o755); err != nil {
		return nil, err
	}
	eng := pn.NewEngine(1, 1)
	defer eng.Close()
	reg := pn.NewRegistry(eng, pn.WithArtifactDir(st.warmDir))
	for _, name := range sortedNames(in) {
		s := tr.begin()
		pre, err := pn.Prepare(in.graphs[name].ref, 1)
		tr.end(s, 0, 0, "probnucleus.Prepare")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "src", name+".pbnucart")
		s = tr.begin()
		_, err = pn.SaveArtifact(path, pre)
		tr.end(s, 0, 0, "probnucleus.SaveArtifact")
		if err != nil {
			return nil, err
		}
		if _, err := reg.PutArtifact(name, path); err != nil {
			return nil, err
		}
		st.artifacts[name] = path
	}
	return st, nil
}

// target is one ready-to-serve configuration of the library: an engine,
// and either a registry or prepared graphs served straight off the engine.
type target struct {
	in  *inputs
	st  *store
	eng *pn.Engine
	reg *pn.Registry
	pre map[string]*pn.Prepared
	m   *pn.EngineMetrics // nil when no observer is attached
	tr  *tracer           // nil in untraced runs

	// seen holds every local result pointer a traced run has received, so a
	// registry answer can be told apart as computed (new) or cached (seen).
	seenMu sync.Mutex
	seen   map[*pn.LocalResult]bool
}

func (t *target) close() { t.eng.Close() }

// setup takes a workload from its in-memory inputs to ready-to-serve: parse
// and register/prepare, or warm-start, then fill the result cache its reads
// rely on. It is exactly what setup_s times. m, when non-nil, is attached as
// the engine and registry observer.
func setup(ctx context.Context, w *workload, in *inputs, st *store, m *pn.EngineMetrics, tr *tracer) (*target, error) {
	t := &target{in: in, st: st, m: m, tr: tr, seen: make(map[*pn.LocalResult]bool)}
	var engOpts []pn.EngineOption
	var regOpts []pn.RegistryOption
	if m != nil {
		engOpts = append(engOpts, pn.WithObserver(m))
		regOpts = append(regOpts, pn.WithRegistryObserver(m))
	}
	t.eng = pn.NewEngine(w.shards, w.workers, engOpts...)
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	switch w.setup {
	case setupParsePut:
		t.reg = pn.NewRegistry(t.eng, regOpts...)
		for _, name := range sortedNames(in) {
			pg, err := t.parse(name, 0, 0)
			if err != nil {
				return nil, err
			}
			s := tr.begin()
			_, err = t.reg.Put(ctx, name, pg)
			tr.end(s, 0, 0, "registry.Put")
			if err != nil {
				return nil, err
			}
		}
	case setupParsePrepare:
		t.pre = make(map[string]*pn.Prepared)
		for _, name := range sortedNames(in) {
			pg, err := t.parse(name, 0, 0)
			if err != nil {
				return nil, err
			}
			s := tr.begin()
			t.pre[name], err = t.eng.Prepare(ctx, pg)
			tr.end(s, 0, 0, "Engine.Prepare")
			if err != nil {
				return nil, err
			}
		}
	case setupWarmStart:
		s := tr.begin()
		t.reg = pn.NewRegistry(t.eng, append(regOpts, pn.WithArtifactDir(st.warmDir))...)
		tr.end(s, 0, 0, "registry.WarmStart")
		for _, name := range sortedNames(in) {
			h, err := t.reg.Get(name)
			if err != nil {
				return nil, fmt.Errorf("warm start: %w", err)
			}
			if !sameGraph(h, in.graphs[name].want) {
				return nil, fmt.Errorf("warm start: %s loaded as %+v, want %+v", name, h, in.graphs[name].want)
			}
		}
	}
	if t.reg != nil {
		for _, o := range in.shapes() {
			if o.kind.isWrite() {
				continue
			}
			s := tr.begin()
			r, err := t.reg.Local(ctx, o.graph, pn.LocalRequest{Theta: o.theta, Mode: pn.ModeDP})
			tr.end(s, 0, 0, "registry.Local")
			if err != nil {
				return nil, fmt.Errorf("fill cache: %w", err)
			}
			t.firstSeen(r)
		}
	}
	ok = true
	return t, nil
}

// parse reads one input graph's edge-list text.
func (t *target) parse(name string, req, parent int64) (*pn.Graph, error) {
	s := t.tr.begin()
	pg, err := pn.ReadEdgeList(bytes.NewReader(t.in.graphs[name].text))
	t.tr.end(s, req, parent, "probgraph.ReadEdgeList")
	return pg, err
}

// response is what one op returned.
type response struct {
	local  *pn.LocalResult
	nuclei []pn.ProbNucleus
	handle pn.GraphHandle
}

// do issues one op through the public API. Every call into a layer is a
// child span of parent in request req.
func (t *target) do(ctx context.Context, o op, req, parent int64) (response, error) {
	var r response
	var err error
	var name string
	s := t.tr.begin()
	lr := pn.LocalRequest{Theta: o.theta, Mode: pn.ModeDP}
	nr := pn.NucleiRequest{K: o.k, Theta: o.theta, Samples: o.samples, Seed: o.seed}
	switch {
	case o.kind == opLocal && t.reg != nil:
		name = "registry.Local"
		r.local, err = t.reg.Local(ctx, o.graph, lr)
	case o.kind == opLocal:
		name = "Engine.LocalPrepared"
		r.local, err = t.eng.LocalPrepared(ctx, t.pre[o.graph], lr)
	case o.kind == opGlobal && t.reg != nil:
		name = "registry.Global"
		r.nuclei, err = t.reg.Global(ctx, o.graph, nr)
	case o.kind == opGlobal:
		name = "Engine.GlobalPrepared"
		r.nuclei, err = t.eng.GlobalPrepared(ctx, t.pre[o.graph], nr)
	case o.kind == opWeak && t.reg != nil:
		name = "registry.Weak"
		r.nuclei, err = t.reg.Weak(ctx, o.graph, nr)
	case o.kind == opWeak:
		name = "Engine.WeakPrepared"
		r.nuclei, err = t.eng.WeakPrepared(ctx, t.pre[o.graph], nr)
	case o.kind == opPut:
		var pg *pn.Graph
		if pg, err = t.parse(o.graph, req, parent); err != nil {
			return r, err
		}
		s = t.tr.begin()
		name = "registry.Put"
		r.handle, err = t.reg.Put(ctx, o.graph, pg)
	case o.kind == opPutArtifact:
		name = "registry.PutArtifact"
		r.handle, err = t.reg.PutArtifact(o.graph, t.st.artifacts[o.graph])
	default:
		return r, fmt.Errorf("op %s not served by this workload", o)
	}
	t.tr.end(s, req, parent, name)
	return r, err
}

// check compares a response with its reference: a read's digest with the
// package-level answer, a write's handle with the graph's known sizes.
func check(o op, r response, refs map[op]digest, in *inputs) bool {
	switch {
	case o.kind.isWrite():
		return sameGraph(r.handle, in.graphs[o.graph].want) && r.handle.Version >= 2
	case o.kind == opLocal:
		return r.local != nil && digestLocal(r.local) == refs[o]
	default:
		return digestNuclei(r.nuclei) == refs[o]
	}
}

// sameGraph compares everything but the version. The handle carries no
// clique count; the reads after a write, all digest-checked, cover the
// completion lists.
func sameGraph(h, want pn.GraphHandle) bool {
	return h.Name == want.Name && h.Vertices == want.Vertices && h.Edges == want.Edges &&
		h.Triangles == want.Triangles
}

// firstSeen reports whether a local result is new to this run.
func (t *target) firstSeen(r *pn.LocalResult) bool {
	t.seenMu.Lock()
	defer t.seenMu.Unlock()
	if t.seen[r] {
		return false
	}
	t.seen[r] = true
	return true
}

func sortedNames(in *inputs) []string {
	names := make([]string, 0, len(in.graphs))
	for name := range in.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
