package core

import (
	"slices"

	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
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
// The candidate pipeline works from the local decomposition's root index
// and its edge→triangle incidence throughout, in time proportional to the
// candidate: each candidate's peel seed is cut from the incidence by
// marking the candidate's edges (no per-candidate graph, index restriction
// or triangle-id lookup), its level-k core is a k-core deletion fixpoint
// over the candidate's 4-cliques rather than a full peel, per-block losses
// are counted into flat per-triangle slots by reusable per-worker scorers,
// and scores are recovered as worlds-minus-losses over the candidate core.
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
// batches, and at every candidate, returning ctx.Err().
func weaklyGlobalNuclei(r *run, req NucleiRequest) ([]ProbNucleus, error) {
	k, theta, pool := req.K, req.Theta, r.pool
	local, err := r.localResult(req)
	if err != nil {
		return nil, err
	}
	cands := local.NucleiForK(k)
	if len(cands) == 0 {
		return nil, nil
	}
	n := req.sampleCount()
	workers := pool.Workers()
	sx := r.weak

	// One shared world stream over the union of all candidate edges (every
	// candidate is a subgraph of it), sampled as one flat bank of edge
	// bitmasks — in one window by default, or streamed through fixed-size
	// windows when the request's Window or MemBudget bounds the bank's peak
	// memory. Each window's per-triangle loss counts are accumulated into
	// persistent per-candidate totals; the totals are sums of the same
	// integers the one-window run sums, so the scores — and the assembled
	// nuclei — are byte-identical at every window size.
	union := unionEdges(cands)
	window := req.windowSize(n, len(union))
	upg := r.pre.pg.SubgraphOfEdges(union)
	inc := local.incidence()
	sx.laneOf = decomp.LaneIndex(sx.laneOf, local.PG.G, union)

	var out []ProbNucleus
	// losses[w][t]: number of window worlds in which candidate triangle t
	// fell out of the candidate's level-k core, accumulated by worker w over
	// the 64-world blocks it scored. The merge is a commutative integer sum,
	// so the totals match the serial run for every worker count. The slices
	// are reused and cleared between candidates.
	sx.losses = resize(sx.losses, workers)
	sx.scorers = resize(sx.scorers, workers)
	seed, lanes, losses, scorers := &sx.seed, &sx.lanes, sx.losses, sx.scorers
	var qual []float64
	var nb nucleusBuilder
	// One closure for the whole run, not one per candidate or window.
	blockFn := func(worker, b int) {
		scorers[worker].ScoreLanes(seed, lanes.Block(b), lanes.Valid(b), losses[worker])
	}
	// lostFlat[lostOff[c]:lostOff[c+1]]: candidate c's per-triangle loss
	// totals, accumulated across windows (laid out on the first window).
	lostOff := make([]int32, 1, len(cands)+1)
	var lostFlat []int32
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		masks, words := r.bank.WorldMasksWindow(pool, upg, n, lo, hi, req.Seed)
		if err := pool.Err(); err != nil {
			return nil, err
		}
		lanes.Transpose(masks, hi-lo, words)
		for ci := range cands {
			if err := pool.Err(); err != nil {
				return nil, err
			}
			cand := &cands[ci]
			seed.Seed(local.TI, inc, cand.TriIDs, sx.laneOf, k)
			m := seed.Len()
			if lo == 0 {
				if r.obs != nil {
					r.obs.Candidate(m)
				}
				for i := 0; i < m; i++ {
					lostFlat = append(lostFlat, 0)
				}
				lostOff = append(lostOff, lostOff[ci]+int32(m))
			}
			for w := range losses {
				losses[w] = resizeCleared(losses[w], m)
			}
			pool.ForWorker(lanes.Blocks(), blockFn)
			tot := lostFlat[lostOff[ci]:lostOff[ci+1]]
			for w := range losses {
				for j, c := range losses[w] {
					tot[j] += c
				}
			}
			if hi < n {
				continue
			}
			// Last window: the totals are complete and the seed is bound to
			// the candidate — score and assemble now. qual[v] holds the
			// estimated probability for view id v, or -1 when below θ. Only
			// the local nucleus's own triangles are scored (the candidate
			// edge set may span extra triangles, which Algorithm 3 never
			// considers), and a triangle outside the candidate's level-k
			// core qualifies in no world, so its score is 0 without
			// consulting the losses. Every one of the nucleus's root ids
			// lies in the view, since the candidate spans its own
			// triangles' edges.
			qual = resizeFilled(qual, m, -1)
			for _, pid := range cand.TriIDs {
				id := seed.ViewID(pid)
				if !seed.InCore(id) {
					continue
				}
				if p := float64(int32(n)-tot[id]) / float64(n); p >= theta {
					qual[id] = p
				}
			}
			out = append(out, assembleWeakNuclei(&nb, local.TI, seed, qual, k, theta)...)
		}
	}
	// The last candidate may have been scored against a half-filled world
	// batch; one final check keeps cancelled calls from returning it.
	if err := pool.Err(); err != nil {
		return nil, err
	}
	sortNuclei(out)
	return out, nil
}

// weakScratch is the working memory of a w-NuDecomp call: the candidate
// peel seed with its root-indexed stamps, the per-worker scorers and loss
// slices, the window's lane words, and the root edge → union lane table,
// which a g-NuDecomp call also fills to build its union tables. An engine
// shard keeps one from one Monte-Carlo request to the next (see
// engineShard), so a run of such queries re-grows none of it. Every call
// re-initialises all of it that it reads.
type weakScratch struct {
	seed    decomp.WorldPeelSeed
	scorers []decomp.WorldMembershipScorer
	losses  [][]int32
	lanes   mc.Lanes
	laneOf  []int32
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
