package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	pn "probnucleus"
)

// opKind is what one request asks of the served system.
type opKind uint8

const (
	opLocal       opKind = iota // ℓ-NuDecomp query
	opGlobal                    // g-NuDecomp query
	opWeak                      // w-NuDecomp query
	opPut                       // Registry.Put from edge-list text
	opPutArtifact               // Registry.PutArtifact from a saved artifact file
	numOpKinds
)

var opNames = [numOpKinds]string{"local", "global", "weak", "put", "put-artifact"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isWrite() bool { return k == opPut || k == opPutArtifact }

func (k opKind) isMC() bool { return k == opGlobal || k == opWeak }

// op is one request. It is comparable, so the request shape itself keys the
// reference digests.
type op struct {
	kind    opKind
	graph   string
	k       int
	theta   float64
	samples int   // possible worlds (global/weak)
	seed    int64 // Monte-Carlo seed (global/weak)
}

func (o op) String() string {
	switch {
	case o.kind.isWrite():
		return fmt.Sprintf("%s %s", o.kind, o.graph)
	case o.kind.isMC():
		return fmt.Sprintf("%s %s k=%d θ=%g samples=%d seed=%d", o.kind, o.graph, o.k, o.theta, o.samples, o.seed)
	}
	return fmt.Sprintf("%s %s θ=%g", o.kind, o.graph, o.theta)
}

// setupKind is how a workload gets from its inputs to ready-to-serve.
type setupKind uint8

const (
	setupParsePut     setupKind = iota // parse text, Registry.Put, fill the result cache
	setupParsePrepare                  // parse text, Engine.Prepare
	setupWarmStart                     // Registry warm start from an artifact dir, fill the result cache
)

// graphSpec is one generated input graph: a named dataset recipe at a scale.
type graphSpec struct {
	dataset string
	scale   float64
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name   string
	graphs []graphSpec
	setup  setupKind
	// clients closed-loop goroutines; the engine has shards × workers.
	clients, shards, workers int
	// observer attaches EngineMetrics in untraced runs too, as a server
	// exposing /metrics does. Traced runs always attach it.
	observer bool
	// cycle is one client's repeating op sequence for a seed; client c
	// starts it at offset c·len/clients.
	cycle func(seed int64) []op
}

// mcSeed derives the Monte-Carlo seed of a workload's i-th request shape.
func mcSeed(seed int64, i int) int64 { return seed*1009 + int64(i) + 1 }

// mcShapes is how many Monte-Carlo seeds global-dblp cycles through. How
// much work a global request does depends on the worlds it samples (the
// θ-prune and early rejection); a run that mixes several seeds measures the
// typical request rather than one seed's luck.
const mcShapes = 8

// workloads are the benchmark's traffic mixes; README.md says why each
// exists and which layers it stresses.
var workloads = []*workload{
	{
		// View-build bound g-NuDecomp through the registry.
		name:   "global-dblp",
		graphs: []graphSpec{{"dblp", 0.04}},
		setup:  setupParsePut, clients: 1, shards: 1, workers: 2,
		cycle: func(seed int64) []op {
			ops := make([]op, mcShapes)
			for i := range ops {
				ops[i] = op{kind: opGlobal, graph: "dblp", k: 1, theta: 0.57, samples: 100, seed: mcSeed(seed, i)}
			}
			return ops
		},
	},
	{
		// Exact local peel, the control for global/weak changes.
		name:   "local-flickr",
		graphs: []graphSpec{{"flickr", 0.06}},
		setup:  setupParsePrepare, clients: 1, shards: 1, workers: 2,
		cycle: func(seed int64) []op {
			return []op{{kind: opLocal, graph: "flickr", theta: 0.1}}
		},
	},
	{
		// The served path with writes beside reads.
		name:   "serve-mixed",
		graphs: []graphSpec{{"krogan", 0.04}, {"dblp", 0.04}},
		setup:  setupWarmStart, clients: 2, shards: 2, workers: 1, observer: true,
		cycle: func(seed int64) []op {
			n := 0
			weak := func() op {
				n++
				return op{kind: opWeak, graph: "dblp", k: 1, theta: 0.1, samples: 100, seed: mcSeed(seed, n)}
			}
			global := func() op {
				n++
				return op{kind: opGlobal, graph: "krogan", k: 1, theta: 0.001, samples: 100, seed: mcSeed(seed, n)}
			}
			local2 := op{kind: opLocal, graph: "krogan", theta: 0.2}
			local3 := op{kind: opLocal, graph: "krogan", theta: 0.3}
			// Two 10-op cycles, so the write alternates Put and PutArtifact.
			var ops []op
			for _, write := range []opKind{opPut, opPutArtifact} {
				ops = append(ops, weak(), global(), local2, weak(), global(), weak(), local3, global(), weak(),
					op{kind: write, graph: "krogan"})
			}
			return ops
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is one generated graph as the server receives it: edge-list text.
type input struct {
	text []byte
	// ref is text parsed once outside any timing; references run on it.
	ref *pn.Graph
	// want holds the graph's sizes, which every write's handle must match.
	want    pn.GraphHandle
	cliques int
}

// inputs is everything a seed determines: the graphs and every client's
// op cycle.
type inputs struct {
	seed   int64
	graphs map[string]*input
	cycles [][]op
}

// opAt is client c's i-th request.
func (in *inputs) opAt(c, i int) op {
	cy := in.cycles[c]
	return cy[i%len(cy)]
}

// shapes lists the distinct ops of every cycle in first-seen order.
func (in *inputs) shapes() []op {
	seen := make(map[op]bool)
	var out []op
	for _, cy := range in.cycles {
		for _, o := range cy {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// makeInputs generates a workload's inputs from a seed. Seed 0 is the
// calibrated dataset exactly. Any other seed relabels the vertices by a
// seeded random permutation and re-seeds every Monte-Carlo request: the
// graph is the same up to isomorphism, so the work per request — and with it
// the figures a run reports — stays comparable across seeds, while the
// bytes the server parses, the triangle order it peels in and the worlds it
// samples all change.
func makeInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{seed: seed, graphs: make(map[string]*input)}
	for _, gs := range w.graphs {
		cfg, err := pn.LoadDataset(gs.dataset, gs.scale)
		if err != nil {
			return nil, err
		}
		pg, err := relabel(pn.GenerateDataset(cfg), seed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := pg.WriteEdgeList(&buf); err != nil {
			return nil, err
		}
		ref, err := pn.ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("parse generated %s: %w", gs.dataset, err)
		}
		pre, err := pn.Prepare(ref, 1)
		if err != nil {
			return nil, err
		}
		in.graphs[gs.dataset] = &input{
			text: buf.Bytes(), ref: ref,
			want: pn.GraphHandle{Name: gs.dataset, Vertices: ref.NumVertices(),
				Edges: ref.NumEdges(), Triangles: pre.Triangles()},
			cliques: pre.Cliques(),
		}
	}
	cycle := w.cycle(seed)
	for c := 0; c < w.clients; c++ {
		off := c * len(cycle) / w.clients
		in.cycles = append(in.cycles, append(append([]op(nil), cycle[off:]...), cycle[:off]...))
	}
	return in, nil
}

// relabel renames pg's vertices by a permutation drawn from seed (the
// identity for seed 0).
func relabel(pg *pn.Graph, seed int64) (*pn.Graph, error) {
	if seed == 0 {
		return pg, nil
	}
	perm := rand.New(rand.NewSource(seed)).Perm(pg.NumVertices())
	edges := append([]pn.ProbEdge(nil), pg.Edges()...)
	for i := range edges {
		u, v := int32(perm[edges[i].U]), int32(perm[edges[i].V])
		if u > v {
			u, v = v, u
		}
		edges[i].U, edges[i].V = u, v
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return pn.NewGraph(pg.NumVertices(), edges)
}

// reference answers a read op through the package-level functions: a
// one-shot serial engine with no registry, no cache and no shared Prepared.
func reference(in *inputs, o op) (digest, error) {
	g := in.graphs[o.graph].ref
	switch o.kind {
	case opLocal:
		r, err := pn.LocalDecompose(g, o.theta, pn.Options{Mode: pn.ModeDP, Workers: 1})
		if err != nil {
			return 0, err
		}
		return digestLocal(r), nil
	case opGlobal, opWeak:
		f := pn.GlobalNuclei
		if o.kind == opWeak {
			f = pn.WeaklyGlobalNuclei
		}
		ns, err := f(g, o.k, o.theta, pn.MCOptions{Samples: o.samples, Seed: o.seed, Workers: 1})
		if err != nil {
			return 0, err
		}
		return digestNuclei(ns), nil
	}
	return 0, fmt.Errorf("no reference for %s", o)
}

// references computes the reference digest of every read shape.
func references(in *inputs, shapes []op) (map[op]digest, error) {
	refs := make(map[op]digest)
	for _, o := range shapes {
		if o.kind.isWrite() {
			continue
		}
		d, err := reference(in, o)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", o, err)
		}
		refs[o] = d
	}
	return refs, nil
}
