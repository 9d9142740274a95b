// Package core implements the paper's contribution: nucleus decomposition
// in probabilistic graphs, in its three semantics.
//
//   - Local (ℓ-NuDecomp, Sec. 5): polynomial-time triangle peeling where each
//     triangle's probabilistic 4-clique support is evaluated by the exact
//     Poisson-binomial dynamic program (DP) or by the statistical
//     approximation framework (AP) of Sec. 5.3.
//   - Global (g-NuDecomp, Algorithm 2): #P-hard; approximated by pruning with
//     the local decomposition and Monte-Carlo sampling of possible worlds.
//   - Weakly-global (w-NuDecomp, Algorithm 3): NP-hard; approximated by
//     per-world deterministic nucleus decomposition over Monte-Carlo samples.
package core

import (
	"sync/atomic"

	"probnucleus/internal/bucket"
	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/pbd"
	"probnucleus/internal/probgraph"
)

// Mode selects the support-evaluation strategy for the local decomposition.
type Mode int

const (
	// ModeDP evaluates every support query with the exact dynamic program
	// (Eq. 7), maintained incrementally across peeling steps.
	ModeDP Mode = iota
	// ModeAP evaluates support queries with the statistical approximation
	// selected by the Sec. 5.3 rule chain, falling back to DP when no
	// approximation's applicability condition holds.
	ModeAP
)

// Options configures LocalDecompose.
type Options struct {
	Mode  Mode
	Hyper pbd.Hyper // approximation hyperparameters; zero value → pbd.DefaultHyper
	// MethodCounts, when non-nil, accumulates how many support queries each
	// approximation method answered (AP instrumentation for the paper's
	// accuracy discussion).
	MethodCounts map[pbd.Method]int
	// Workers bounds the worker pool used for triangle enumeration, the
	// initial scoring and each peeling sub-round's clique kill and
	// re-scoring: 0 (the default) means runtime.GOMAXPROCS, 1 runs fully
	// serial. Results are byte-identical for every value — parallel stages
	// only ever write per-triangle (or per-part) state, the affected
	// triangles come out of a removal in an order that does not depend on
	// the worker count, and all queue mutations are applied serially in
	// that order.
	Workers int
}

// rescoreParallelCutoff is the minimum number of triangles a peeling
// sub-round re-scores for which it fans their deconvolution and re-scoring
// out to the worker pool; below it the pool overhead outweighs the work.
const rescoreParallelCutoff = 16

// localScratch is the working memory of a local decomposition: the clique
// adjacency, every triangle's support distribution with the flat factor and
// pmf arenas behind them, and the peel's queue and bookkeeping. An engine
// shard keeps one from one local request to the next (see engineShard), so
// a run of local queries allocates little more than their results instead
// of tens of MB each on a large graph. Every call re-initialises all of it that it reads.
type localScratch struct {
	ca      decomp.CliqueAdj
	q       bucket.Queue
	triProb []float64
	dists   []pbd.Dist
	off     []int
	psFlat  []float64
	pmfFlat []float64
	initK   []int
	initM   []pbd.Method
	// The peel's batches: the triangles popped for one sub-round, the
	// removal's stamps, pair buffers and grouped slots, and the affected
	// triangles' new scores and methods.
	batchIDs []int32
	batch    decomp.BatchRemoval
	nks      []int
	nms      []pbd.Method
}

// resize returns s with length n, reusing its backing array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// LocalResult is the outcome of ℓ-NuDecomp: the triangle index of the graph
// and the θ-nucleusness ν(△) of every triangle — the largest k such that △
// belongs to an ℓ-(k,θ)-nucleus. Triangles whose own existence probability
// is below θ cannot belong to any nucleus and get ν = −1.
//
// A LocalResult is read-only once returned: g- and w-NuDecomp calls that
// prune with it (MCOptions.Local, NucleiRequest.Local) derive candidate
// plans from Nucleusness and keep them on the result, so a result whose
// fields change after its first such call would serve stale candidates.
type LocalResult struct {
	PG          *probgraph.Graph
	TI          *graph.TriangleIndex
	Theta       float64
	Nucleusness []int
	// pre is the prepared artifact PG and TI come from: it holds TI's
	// edge→triangle incidence and, for an artifact loaded zero-copy, pins
	// the mapping TI aliases. Set by the peel; a result assembled another
	// way gets one on first use (see prepared).
	pre atomic.Pointer[Prepared]
	// globalPlans and weakPlans hold the candidate plans built from the
	// result, per level k (see plan.go); they live as long as the result.
	globalPlans plans[globalPlan]
	weakPlans   plans[weakPlan]
}

// prepared returns the artifact the result was peeled from, wrapping PG and
// TI in one on the first call when the result was assembled some other
// way. The wrap is published by CompareAndSwap, as Prepared.incidence
// publishes the incidence, so concurrent first callers share one.
func (r *LocalResult) prepared() *Prepared {
	if p := r.pre.Load(); p != nil {
		return p
	}
	r.pre.CompareAndSwap(nil, NewPreparedFromParts(r.PG, r.TI, nil))
	return r.pre.Load()
}

// incidence returns TI's edge→triangle incidence, the one the peel that
// produced the result walked.
func (r *LocalResult) incidence() *decomp.TriIncidence { return r.prepared().incidence() }

// LocalDecompose runs Algorithm 1 (ℓ-NuDecomp) on pg with threshold θ.
//
// The peel is level-synchronous: each sub-round removes every triangle at
// the current level at once (DP mode; AP removes one triangle per
// sub-round) and re-scores each triangle that lost cliques once.
// Support queries are answered from one incrementally-maintained
// Poisson-binomial distribution per triangle (pbd.Dist): when a sub-round
// kills 4-cliques, their Bernoulli factors are deconvolved out of each
// affected triangle's pmf in O(k) each instead of reconvolving all
// surviving cliques in O(c·k), and the Dist's stability guard rebuilds from
// scratch whenever that could change an answer — so the output is
// byte-identical to the from-scratch scorer.
//
// The call prepares pg and serves the request on a one-shot one-shard
// Engine, so the package-level path and the served path run the identical
// kernel.
func LocalDecompose(pg *probgraph.Graph, theta float64, opts Options) (*LocalResult, error) {
	return oneShot(pg, opts.Workers, localRequest(theta, opts), nil, (*Engine).LocalPrepared)
}

// localRequest lifts θ plus the per-query fields of o into the request
// struct the Engine serves — the one bridge the package-level wrapper
// crosses.
func localRequest(theta float64, o Options) LocalRequest {
	return LocalRequest{
		Theta:        theta,
		Mode:         o.Mode,
		Hyper:        o.Hyper,
		MethodCounts: o.MethodCounts,
	}
}

// localDecompose is the execute stage of the LocalDecompose kernel for a
// validated request: it consumes the run's prepared artifact — never
// enumerating triangles itself — and runs entirely on the run's pool,
// reusing the run's local working memory when it has some. The artifact is
// only read, so concurrent calls sharing one Prepared are safe.
// Cancellation of the pool's bound context is observed between pool chunks
// and once per peeling sub-round, returning ctx.Err(); a DP sub-round
// removes a whole level, so a cancelled call may finish the level's
// removal and re-scoring first.
func localDecompose(r *run, req LocalRequest) (*LocalResult, error) {
	theta, mode, hyper := req.Theta, req.Mode, req.Hyper
	if hyper == (pbd.Hyper{}) {
		hyper = pbd.DefaultHyper
	}
	pg, ti := r.pre.pg, r.pre.ti
	pool := r.pool
	workers := pool.Workers()
	sx := r.local
	if sx == nil {
		sx = new(localScratch)
	}
	ca := &sx.ca
	ca.Reset(ti, r.pre.incidence())
	n := ti.Len()

	// Per-triangle existence probability Pr(△) and the support distribution
	// over its 4-clique factors Pr(E_z) = p(u,z)·p(v,z)·p(w,z) (Sec. 5.1),
	// held as an incrementally-maintained Poisson binomial whose slot order
	// matches the completion order of ti.Comps[t]. Each slot is written by
	// exactly one worker.
	sx.triProb = resize(sx.triProb, n)
	sx.dists = resize(sx.dists, n)
	triProb, dists := sx.triProb, sx.dists
	// Factor probabilities and pmf buffers live in two flat arenas sliced
	// per triangle (the truncation bound never exceeds the live factor
	// count, so a pmf span of the completion count never reallocates).
	sx.off = resize(sx.off, n+1)
	off := sx.off
	off[0] = 0
	for t := 0; t < n; t++ {
		off[t+1] = off[t] + len(ti.Comps[t])
	}
	sx.psFlat = resize(sx.psFlat, off[n])
	sx.pmfFlat = resize(sx.pmfFlat, off[n])
	psFlat, pmfFlat := sx.psFlat, sx.pmfFlat
	pool.For(n, func(t int) {
		var ps []float64
		triProb[t], ps = cliqueFactors(pg, ti.Tris[t], ti.Comps[t], psFlat[off[t]:off[t]:off[t+1]])
		dists[t].InitBuffered(ps, pmfFlat[off[t]:off[t]:off[t+1]])
	})
	if err := pool.Err(); err != nil {
		return nil, err
	}

	nu := make([]int, n)

	// Score evaluates max{k : Pr(△)·Pr[ζ ≥ k] ≥ θ} over the live cliques of
	// triangle t. It only reads triangle t's distribution, so concurrent
	// calls for distinct triangles are safe; method tallies are applied by
	// the caller.
	//
	// In AP mode the Sec. 5.3 method selection reads the Dist's maintained
	// µ/σ²/max-p aggregates (amortized O(1), bit-compatible with rescanning
	// the live factors), the closed-form tails evaluate from those same
	// aggregates (Dist.MaxKClosed — no per-query pack of the live factor
	// slice), and the DP fallback answers from the incrementally-maintained
	// pmf instead of re-running the from-scratch dynamic program.
	score := func(t int32) (int, pbd.Method) {
		thr := theta / triProb[t]
		if mode == ModeAP {
			m := dists[t].Choose(hyper)
			if m == pbd.MethodDP {
				return dists[t].MaxK(thr), pbd.MethodDP
			}
			return dists[t].MaxKClosed(thr, m), m
		}
		return dists[t].MaxK(thr), pbd.MethodDP
	}
	tally := func(m pbd.Method) {
		if req.MethodCounts != nil {
			req.MethodCounts[m]++
		}
	}

	// apply is the second half of a batch removal, run for the i-th
	// triangle that lost cliques (RemoveBatch has already killed them in
	// the clique adjacency): it deconvolves their factors out of the
	// triangle's distribution and, once peeling (scoring) has begun,
	// re-scores it — once, however many cliques it lost — into nks/nms,
	// clamped to floor. It touches only that triangle's state, so the
	// affected triangles are applied in parallel.
	// One closure serves the whole call: a func literal handed to the pool
	// escapes, so building it per sub-round would allocate once per
	// sub-round.
	rb := &sx.batch
	rb.Reset(n)
	var q *bucket.Queue
	scoring, floor := false, 0
	nks, nms := sx.nks, sx.nms
	apply := func(_, i int) {
		o := rb.Tri(i)
		for _, slot := range rb.Slots(i) {
			dists[o].RemoveFactor(int(slot))
		}
		if scoring {
			nk, m := score(o)
			nks[i], nms[i] = max(nk, floor), m
		}
	}
	// Once peeling has begun, a triangle whose key is already at most
	// floor is left out of a removal's result: it will be popped at floor,
	// and its distribution is never read again.
	rb.Keep = func(o int32) bool { return !scoring || q.Key(o) > floor }
	// remove kills every 4-clique of the batch's triangles and applies the
	// loss to each live triangle that shared one.
	remove := func(batch []int32) error {
		ca.RemoveBatch(pool, batch, rb)
		if err := pool.Err(); err != nil {
			return err
		}
		m := rb.Len()
		nks, nms = resize(nks, m), resize(nms, m)
		if workers > 1 && m >= rescoreParallelCutoff {
			pool.ForWorker(m, apply)
		} else {
			for i := 0; i < m; i++ {
				apply(0, i)
			}
		}
		return pool.Err()
	}

	// Phase 0: triangles with Pr(△) < θ can belong to no nucleus (even
	// k = 0 requires the triangle itself to exist with probability ≥ θ).
	// Remove them up front, as one batch; their cliques disappear for
	// everyone else.
	batch := sx.batchIDs[:0]
	for t := int32(0); int(t) < n; t++ {
		if triProb[t] < theta {
			nu[t] = -1
			batch = append(batch, t)
		}
	}
	if err := remove(batch); err != nil {
		return nil, err
	}

	// Phase 1: initial κ scores for the surviving triangles, evaluated in
	// parallel (every support query is independent) and pushed serially in
	// ascending id order so the queue layout matches the serial run.
	sx.initK = resize(sx.initK, n)
	sx.initM = resize(sx.initM, n)
	initK, initM := sx.initK, sx.initM
	pool.ForWorker(n, func(_, idx int) {
		t := int32(idx)
		if nu[t] == -1 {
			return
		}
		initK[t], initM[t] = score(t)
	})
	if err := pool.Err(); err != nil {
		return nil, err
	}
	q = &sx.q
	q.Reset(n, maxAliveCount(ca))
	for t := int32(0); int(t) < n; t++ {
		if nu[t] == -1 {
			continue
		}
		tally(initM[t])
		q.Push(t, initK[t])
	}

	// Phase 2: peel (Algorithm 1), level-synchronously. Each sub-round pops
	// every triangle whose key is at most floor, fixes their nucleusness at
	// floor, removes them as one batch and re-scores the live triangles
	// that shared a 4-clique with any of them, once each; when no key is at
	// most floor, floor rises to the minimum key. In DP mode κ is a function
	// of the live clique set alone and can only fall as cliques die, so the
	// result does not depend on the order within a level (the generalized
	// cores of Batagelj and Zaveršnik) and a level is one batch. The AP
	// closed-form tails are not monotone under removal, so AP peels the
	// same loop with batches of one triangle, in the queue's pop order, and
	// the affected triangles of a batch of one come out of the removal in
	// ascending id order. Queue updates are applied in the removal's order,
	// which does not depend on the worker count, so neither does the queue.
	limit := 0 // the whole level
	if mode == ModeAP {
		limit = 1
	}
	scoring = true
	for q.Len() > 0 {
		// One cancellation check per sub-round, besides the pool's own
		// between chunks.
		if err := pool.Err(); err != nil {
			return nil, err
		}
		batch = q.PopAtMost(floor, limit, batch[:0])
		if len(batch) == 0 {
			floor = q.MinKey()
			continue
		}
		for _, t := range batch {
			nu[t] = floor
		}
		if err := remove(batch); err != nil {
			return nil, err
		}
		for i := 0; i < rb.Len(); i++ {
			tally(nms[i])
			if o := rb.Tri(i); nks[i] < q.Key(o) {
				q.Update(o, nks[i])
			}
		}
		if r.obs != nil {
			r.obs.PeelRound(rb.Len())
		}
	}
	sx.batchIDs, sx.nks, sx.nms = batch, nks, nms
	res := &LocalResult{PG: pg, TI: ti, Theta: theta, Nucleusness: nu}
	res.pre.Store(r.pre)
	return res, nil
}

// cliqueFactors returns a triangle's existence probability Pr(△) and
// appends to ps the Bernoulli factor Pr(E_z) = p(A,z)·p(B,z)·p(C,z) of each
// of its completions zs (ascending, all 4-clique completions in pg), in
// order. It reads the probabilities by CSR position through forward cursors
// over the sorted adjacency lists of A, B and C, each galloping from its
// previous hit, instead of a binary search per edge; the products are the
// ones pg.TriangleProb and pg.Prob give, bit for bit.
func cliqueFactors(pg *probgraph.Graph, tri graph.Triangle, zs []int32, ps []float64) (float64, []float64) {
	offs, adj := pg.G.CSR()
	prob := pg.Probs()
	oa, ob, oc := offs[tri.A], offs[tri.B], offs[tri.C]
	na, nb, nc := adj[oa:offs[tri.A+1]], adj[ob:offs[tri.B+1]], adj[oc:offs[tri.C+1]]
	ab := seekNeighbor(na, 0, tri.B)
	ac := seekNeighbor(na, ab+1, tri.C)
	bc := seekNeighbor(nb, 0, tri.C)
	pTri := prob[oa+int32(ab)] * prob[oa+int32(ac)] * prob[ob+int32(bc)]
	// Each cursor rests just past its last hit: the next, larger z is at or
	// after it.
	ia, ib, ic := 0, 0, 0
	for _, z := range zs {
		a, b, c := seekNeighbor(na, ia, z), seekNeighbor(nb, ib, z), seekNeighbor(nc, ic, z)
		ps = append(ps, prob[oa+int32(a)]*prob[ob+int32(b)]*prob[oc+int32(c)])
		ia, ib, ic = a+1, b+1, c+1
	}
	return pTri, ps
}

// seekNeighbor returns the position of v in the sorted adjacency list ns,
// searching forward from position from; v must be present at or after it.
// The common case, v right at from, is answered inline; otherwise it
// gallops (gallopNeighbor).
func seekNeighbor(ns []int32, from int, v int32) int {
	if from < len(ns) && ns[from] == v {
		return from
	}
	return gallopNeighbor(ns, from, v)
}

func gallopNeighbor(ns []int32, from int, v int32) int {
	i := from + graph.Gallop(ns[from:], v)
	if i == len(ns) || ns[i] != v {
		panic("core: 4-clique edge missing from graph")
	}
	return i
}

func maxAliveCount(ca *decomp.CliqueAdj) int {
	max := 0
	for t := 0; t < ca.Len(); t++ {
		if ca.AliveCount[t] > max {
			max = ca.AliveCount[t]
		}
	}
	return max
}

// MaxNucleusness returns the largest ν value in the result (0 for a graph
// with no qualifying triangles).
func (r *LocalResult) MaxNucleusness() int { return decomp.MaxNucleusness(r.Nucleusness) }

// NucleiForK assembles the ℓ-(k,θ)-nuclei: maximal unions of 4-cliques whose
// triangles all have ν ≥ k, split into 4-clique-connected components. Each
// level-k clique is resolved once through the incidence the peel walked.
// Every call assembles the nuclei afresh, so the caller owns the returned
// slices; the w-NuDecomp plan keeps its own copy of the candidates.
func (r *LocalResult) NucleiForK(k int) []decomp.Nucleus {
	return decomp.KNuclei(r.TI, r.incidence(), r.Nucleusness, k)
}

// NucleusnessOf returns ν(△) for a canonical triangle, or -1 when the
// triangle is not part of the graph.
func (r *LocalResult) NucleusnessOf(tri graph.Triangle) int {
	id, ok := r.TI.ID(tri)
	if !ok {
		return -1
	}
	return r.Nucleusness[id]
}
