package core

import (
	"slices"

	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
	"probnucleus/internal/uf"
)

// WeaklyGlobalNuclei implements Algorithm 3: it finds the w-(k,θ)-nuclei of
// pg. Every w-(k,θ)-nucleus is contained in an ℓ-(k,θ)-nucleus, so each
// local nucleus H is used as a candidate, and every triangle's global_score
// counts the sampled worlds in which it belongs to a deterministic
// k-nucleus. Triangles with score/n ≥ θ are assembled into
// 4-clique-connected unions.
//
// The n possible worlds are sampled once per call over the union of all
// candidate edge sets and shared by every candidate (each candidate's
// marginal world distribution is unchanged — edges are kept independently
// with their probabilities either way — so each estimate keeps its (ε,δ)
// guarantee; only the PRNG stream assignment differs from the per-candidate
// sampler, hence the deliberate golden regeneration). Membership is scored
// 64 worlds at a time: the candidate is peeled once, and since a world can
// only lose cliques relative to the candidate, its qualifying triangles are
// the k-core of the candidate's level-k core (decomp.WorldPeelSeed) cut down
// to the triangles whose edges the world keeps. Each window of the bank is
// transposed once into per-edge lane words (mc.Lanes), and
// decomp.WorldMembershipScorer.ScoreLanes runs that k-core fixpoint on
// 64-bit words, one bit lane per world, for every 64-world block.
//
// The candidates, their edge union and their peel seeds depend only on the
// pruning local result and k, so they form a candidate plan that the first
// call builds and publishes on the local result: each seed is cut once, from
// the result's root index and edge→triangle incidence, by marking the
// candidate's edges (no per-candidate graph, index restriction or
// triangle-id lookup), its level-k core found by a k-core deletion fixpoint
// over the candidate's 4-cliques rather than a full peel. Repeated calls
// with one MCOptions.Local, at any seed, sample count or window, reuse it
// and only draw, score and assemble.
//
// The unit of parallel work is the candidate: each window's candidates are
// scored in one worker-pool round, a worker scoring every 64-world block of
// a whole candidate on its own scorer into the candidate's own loss totals,
// and on the last window judging it and assembling its nuclei into the
// candidate's own slot. The slots are concatenated in enumeration order, so
// the result does not depend on the worker count.
//
// The call serves the request on a one-shot one-shard Engine (see
// MCOptions.Local for the artifact it runs from), so the package-level path
// and the served path run the identical kernel.
func WeaklyGlobalNuclei(pg *probgraph.Graph, k int, theta float64, opts MCOptions) ([]ProbNucleus, error) {
	return oneShot(pg, opts.Workers, nucleiRequest(k, theta, opts), opts.Local, (*Engine).WeakPrepared)
}

// weaklyGlobalNuclei is the WeaklyGlobalNuclei kernel for a validated
// request; it runs entirely on r's pool. Cancellation of the pool's bound
// context is observed between pool chunks, between Monte-Carlo world
// batches, at every candidate, and at every candidate of a plan's build,
// returning ctx.Err(); a cancelled build publishes no plan.
//
// It takes the candidates and their peel seeds from the local result's plan
// at k (building it on first use), then draws one shared world stream over
// the union of all candidate edges (every candidate is a subgraph of it) as
// a flat bank of edge bitmasks — in one window by default, or streamed
// through fixed-size windows when the request's Window or MemBudget bounds
// the bank's peak memory. Each window is transposed once and scored in one
// pool round over the candidates (weakScratch.scoreWindow). A
// candidate's per-triangle loss totals are sums of the same integers the
// one-window run sums, so the scores — and the assembled nuclei — are
// byte-identical at every window size and worker count.
func weaklyGlobalNuclei(r *run, req NucleiRequest) ([]ProbNucleus, error) {
	k, theta, pool := req.K, req.Theta, r.pool
	local, err := r.localResult(req)
	if err != nil {
		return nil, err
	}
	plan, err := local.weakPlan(k, pool.Err)
	if err != nil {
		return nil, err
	}
	if len(plan.tris) == 0 {
		return nil, nil
	}
	if r.obs != nil {
		for c := range plan.seeds {
			r.obs.Candidate(plan.seeds[c].Len())
		}
	}
	n := req.sampleCount()
	window := req.windowSize(n, len(plan.union))
	wx := r.weak
	wx.bind(pool, plan, local.TI, n, k, theta)
	defer wx.release()
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		masks, words := r.bank.WorldMasksWindow(pool, plan.upg, n, lo, hi, req.Seed)
		if err := pool.Err(); err != nil {
			return nil, err
		}
		wx.scoreWindow(masks, hi-lo, words, hi == n)
		// A cancelled round leaves some candidates unscored.
		if err := pool.Err(); err != nil {
			return nil, err
		}
	}
	return wx.nuclei(), nil
}

// weakScratch is the working memory of a w-NuDecomp call: the window's lane
// words, the candidates' loss totals, one nuclei slot per candidate, and one
// scorer, estimate and nucleus-builder scratch per pool worker. An engine
// shard keeps one from one w-NuDecomp request to the next (see
// engineShard), so a run of such queries re-grows none of it; every call
// re-initialises all of it that it reads. Each call binds it to its plan and
// releases the plan when it returns, so between calls a shard keeps no plan
// alive.
type weakScratch struct {
	pool  *par.Pool
	plan  *weakPlan
	ti    *graph.TriangleIndex
	n, k  int
	theta float64
	// lanes holds the current window, transposed; last reports that it is
	// the call's last window.
	lanes mc.Lanes
	last  bool
	// lost[plan.lossOff[c]:plan.lossOff[c+1]]: the worlds, over every window
	// scored so far, in which each of candidate c's view triangles fell out
	// of its level-k core, indexed by view id.
	lost []int32
	// slots[c] holds candidate c's nuclei once the last window is scored.
	slots   [][]ProbNucleus
	workers []weakWorker
	// The hoisted round body (one per scratch, not one per window or
	// request).
	candFn func(worker, c int)
}

// weakWorker is one pool worker's scratch for scoring and assembling whole
// candidates: the word-parallel scorer, the per-view-id estimates of the
// candidate being judged, and the nucleus builder.
type weakWorker struct {
	scorer decomp.WorldMembershipScorer
	qual   []float64
	nb     nucleusBuilder
}

// bind readies the scratch for a call of n sampled worlds at level k and θ
// on pool, over plan, whose nuclei are built from the root index ti. Every
// worker's scorer and estimates are grown to the plan's largest candidate,
// so what a warm shard allocates does not depend on which worker scores
// which candidate.
func (wx *weakScratch) bind(pool *par.Pool, plan *weakPlan, ti *graph.TriangleIndex, n, k int, theta float64) {
	wx.pool, wx.plan, wx.ti = pool, plan, ti
	wx.n, wx.k, wx.theta = n, k, theta
	wx.lost = resizeCleared(wx.lost, int(plan.lossOff[len(plan.seeds)]))
	wx.slots = resize(wx.slots, len(plan.seeds))
	wx.workers = resize(wx.workers, pool.Workers())
	for w := range wx.workers {
		ww := &wx.workers[w]
		ww.scorer.Reserve(plan.maxView)
		ww.qual = slices.Grow(ww.qual[:0], plan.maxView)
	}
	if wx.candFn == nil {
		wx.candFn = wx.scoreCandidate
	}
}

// release ends a call: it drops the references into the plan and the
// result's index, and the nuclei the slots hold, so that a shard keeps
// neither alive after the call.
func (wx *weakScratch) release() {
	wx.plan, wx.ti = nil, nil
	clear(wx.slots)
}

// scoreWindow scores every candidate against the next window of the shared
// bank — masks holds `worlds` consecutive world rows of `words` words each —
// in one pool round, after transposing the window into lane blocks once;
// last marks the call's last window, on which the candidates are judged and
// assembled. A one-worker pool runs the round inline, as one serial loop
// over the candidates.
func (wx *weakScratch) scoreWindow(masks []uint64, worlds, words int, last bool) {
	wx.lanes.Transpose(masks, worlds, words)
	wx.last = last
	wx.pool.ForWorker(len(wx.plan.seeds), wx.candFn)
}

// scoreCandidate is the round body of a window: worker scores candidate c's
// peel seed against every 64-world block of the window into the candidate's
// loss totals, and on the last window turns the totals into estimates and
// assembles the candidate's nuclei into its slot. Only the nucleus's own
// triangles are scored (the candidate edge set may span extra triangles,
// which Algorithm 3 never considers), and a triangle outside the
// candidate's level-k core qualifies in no world, so its estimate is 0
// without consulting the losses.
func (wx *weakScratch) scoreCandidate(worker, c int) {
	if wx.pool.Err() != nil {
		return
	}
	p, ww := wx.plan, &wx.workers[worker]
	seed := &p.seeds[c]
	lost := wx.lost[p.lossOff[c]:p.lossOff[c+1]]
	for b := 0; b < wx.lanes.Blocks(); b++ {
		ww.scorer.ScoreLanes(seed, wx.lanes.Block(b), wx.lanes.Valid(b), lost)
	}
	if !wx.last {
		return
	}
	// qual[v] holds the estimate for view id v, or -1 when below θ.
	ww.qual = resizeFilled(ww.qual, seed.Len(), -1)
	for _, v := range p.tview[c] {
		if !seed.InCore(v) {
			continue
		}
		if est := float64(int32(wx.n)-lost[v]) / float64(wx.n); est >= wx.theta {
			ww.qual[v] = est
		}
	}
	wx.slots[c] = assembleWeakNuclei(&ww.nb, wx.ti, seed, ww.qual, wx.k, wx.theta)
}

// nuclei concatenates the candidates' slots in enumeration order and sorts
// the result; it is nil when no candidate has a nucleus.
func (wx *weakScratch) nuclei() []ProbNucleus {
	total := 0
	for _, s := range wx.slots {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]ProbNucleus, 0, total)
	for _, s := range wx.slots {
		out = append(out, s...)
	}
	sortNuclei(out)
	return out
}

// unionEdges merges the sorted canonical edge lists of the candidates into
// one sorted duplicate-free list — the edge set the shared worlds are
// sampled over. Distinct local nuclei have disjoint triangle sets but may
// share edges, hence the compaction.
func unionEdges(cands []decomp.Nucleus) []graph.Edge {
	total := 0
	for _, c := range cands {
		total += len(c.Edges)
	}
	union := make([]graph.Edge, 0, total)
	for _, c := range cands {
		union = append(union, c.Edges...)
	}
	slices.SortFunc(union, compareEdges)
	return slices.Compact(union)
}

// resizeFilled returns s with length n and every element set to v, reusing
// the backing array when it is large enough.
func resizeFilled(s []float64, n int, v float64) []float64 {
	if cap(s) < n {
		s = make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// assembleWeakNuclei groups the qualifying triangles into 4-clique-connected
// components ("connected union of △'s", Algorithm 3 line 12). ti is the root
// triangle index, seed the peel seed bound to the candidate, qual the
// per-view-id estimate (-1 for triangles below θ), and nb builds each
// component's nucleus. A qualifying triangle lies in the candidate's
// level-k core, so every 4-clique of four qualifying triangles is one of
// the seed's core cliques, whose siblings the seed resolved once through
// the incidence walk: the components come from those cliques alone, with
// no lookup by vertex triple. Groups lists each component's members
// ascending, and view ids follow root ids, so the root ids handed to nb are
// ascending too and the nuclei do not depend on the order of the unions.
func assembleWeakNuclei(nb *nucleusBuilder, ti *graph.TriangleIndex, seed *decomp.WorldPeelSeed, qual []float64, k int, theta float64) []ProbNucleus {
	anyQual := false
	for _, p := range qual {
		if p >= 0 {
			anyQual = true
			break
		}
	}
	if !anyQual {
		return nil
	}
	u := uf.New(seed.Len())
	for _, cl := range seed.Cliques() {
		if qual[cl[0]] >= 0 && qual[cl[1]] >= 0 && qual[cl[2]] >= 0 && qual[cl[3]] >= 0 {
			u.Union(cl[0], cl[1])
			u.Union(cl[0], cl[2])
			u.Union(cl[0], cl[3])
		}
	}
	groups := u.Groups(1, func(t int32) bool { return qual[t] >= 0 })
	out := make([]ProbNucleus, 0, len(groups))
	for _, grp := range groups {
		minProb := minQualProb(grp, qual)
		for i, v := range grp {
			grp[i] = seed.Root(v)
		}
		out = append(out, nb.build(ti, grp, k, theta, minProb))
	}
	return out
}

func minQualProb(grp []int32, qual []float64) float64 {
	min := 1.0
	for _, t := range grp {
		if p := qual[t]; p < min {
			min = p
		}
	}
	return min
}
