package core

import (
	"sync/atomic"

	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/obs"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// Prepared is the prepare-stage artifact of the split request path: the
// probabilistic graph (CSR adjacency plus its cached canonical edge list)
// together with its fully-enumerated triangle index and 4-clique completion
// lists — the dominant fixed cost of every (θ,k)-nucleus query, paid once
// instead of per call. It also holds the index's edge→triangle incidence
// (decomp.TriIncidence) that clique peels resolve 4-clique siblings
// through. The incidence is derived from the index lazily, on the first
// peel, and is never persisted: artifacts carry only the graph and the
// index, so loading one stays a zero-enumeration, zero-derivation step.
//
// A Prepared is safe to share across concurrent requests and engine shards:
// every field is read-only after construction — the incidence read-only
// after its one-time derivation, which is published atomically — and the
// kernels consume the index and incidence through read-only walks, keeping
// their mutable stamps and tables in per-request scratch (see
// graph.TriangleIndex). Queries served from a Prepared never re-enumerate
// triangles, so they never fire the obs.IndexBuilt counter — which is how
// the registry's differential tests prove the cached path skips
// enumeration entirely.
//
// Lifetime: on a Prepared loaded zero-copy from an artifact file, the
// structures handed out by Graph, Index, and Edges alias a memory mapping
// that stays mapped only while the Prepared itself is reachable — a
// finalizer unmaps it afterwards. Callers that retain those views beyond a
// call must keep the Prepared alive for as long as the views are in use
// (holding it in the same struct, as the registry and a kernel's run
// context do, is enough); dropping the Prepared while using a retained Graph or Index can
// fault on unmapped memory.
type Prepared struct {
	pg *probgraph.Graph
	ti *graph.TriangleIndex
	// pin, on artifacts loaded zero-copy from a file (internal/artifact),
	// holds the memory mapping the graph and index slices alias, keeping it
	// reachable — and therefore mapped — for exactly as long as the Prepared
	// itself is.
	pin any
	// inc is ti's incidence once a peel has derived it (see incidence).
	inc atomic.Pointer[decomp.TriIncidence]
}

// newIncidence derives a Prepared's incidence. It is a variable so tests can
// count builds and inject a failing one.
var newIncidence = decomp.NewTriIncidence

// incidence returns the index's edge→triangle incidence, deriving it on the
// first call. The build runs before anything is published and a
// CompareAndSwap installs it, so concurrent first callers may each build one
// but all of them return the single winner, and a build that panics
// publishes nothing: the next call simply builds again. (A sync.Once would
// mark a panicking build done and leave the Prepared without an incidence
// for good.)
func (p *Prepared) incidence() *decomp.TriIncidence {
	if inc := p.inc.Load(); inc != nil {
		return inc
	}
	p.inc.CompareAndSwap(nil, newIncidence(p.ti, p.pg.G))
	return p.inc.Load()
}

// Graph returns the probabilistic graph the artifact was prepared from. On
// mmap-loaded artifacts its arrays alias the mapping the Prepared pins —
// see the Lifetime note on Prepared.
func (p *Prepared) Graph() *probgraph.Graph { return p.pg }

// Triangles returns the number of indexed triangles.
func (p *Prepared) Triangles() int { return p.ti.Len() }

// Cliques returns the number of 4-cliques in the completion lists.
func (p *Prepared) Cliques() int { return p.ti.CliqueCount() }

// Edges returns the canonical probabilistic edge list. The slice is shared
// with the artifact and must not be mutated; keep the Prepared reachable
// while using it (see the Lifetime note on Prepared).
func (p *Prepared) Edges() []probgraph.ProbEdge { return p.pg.Edges() }

// Index returns the artifact's triangle index. The index is immutable and
// must not be modified; the accessor exists for serializers
// (internal/artifact) and read-only consumers. Keep the Prepared reachable
// while using it (see the Lifetime note on Prepared).
func (p *Prepared) Index() *graph.TriangleIndex { return p.ti }

// NewPreparedFromParts assembles a Prepared from an already-built graph and
// triangle index without enumerating anything — the constructor
// internal/artifact's loader uses, which is why loading an artifact never
// fires obs.IndexBuilt. pin, when non-nil, is retained for the lifetime of
// the Prepared; loaders pass the memory mapping the slices alias so it
// cannot be unmapped while the artifact is reachable. The caller promises pg
// and ti describe the same graph.
func NewPreparedFromParts(pg *probgraph.Graph, ti *graph.TriangleIndex, pin any) *Prepared {
	return &Prepared{pg: pg, ti: ti, pin: pin}
}

// newPrepared builds the artifact on pool, firing obs.IndexBuilt on success
// — the enumeration event cached paths are measured against.
func newPrepared(pg *probgraph.Graph, pool *par.Pool, o obs.Observer) (*Prepared, error) {
	ti := graph.NewTriangleIndex(pg.G, pool)
	if err := pool.Err(); err != nil {
		return nil, err
	}
	if o != nil {
		o.IndexBuilt(ti.Len())
	}
	return &Prepared{pg: pg, ti: ti}, nil
}

// Prepare enumerates pg's triangle index once, up front, on a fresh pool of
// the given worker count (0 = all cores), returning the read-only artifact
// the Engine's *Prepared methods answer from. Use Engine.Prepare to build
// one on a serving shard instead.
func Prepare(pg *probgraph.Graph, workers int) (*Prepared, error) {
	pool := par.NewPool(workers)
	defer pool.Close()
	return newPrepared(pg, pool, nil)
}
