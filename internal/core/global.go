package core

import (
	"cmp"
	"math"
	"slices"

	"probnucleus/internal/decomp"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/probgraph"
)

// MCOptions configures the Monte-Carlo estimation of the global and
// weakly-global algorithms. The number of sampled worlds is Samples when
// positive, otherwise the Hoeffding bound ⌈ln(2/δ)/(2ε²)⌉ from Eps/Delta
// (Lemma 4).
type MCOptions struct {
	Eps     float64
	Delta   float64
	Samples int
	Seed    int64
	// Local supplies a precomputed exact local decomposition at a θ no
	// higher than the call's to prune the search space; when nil one at the
	// call's θ is computed internally. A Local above the call's θ is refused
	// with ErrLocalTheta. When set, the call runs from the prepared artifact
	// Local was decomposed on and samples its worlds from Local.PG, so it
	// enumerates nothing.
	Local *LocalResult
	// Window, when positive and smaller than the sample count, streams the
	// shared world-mask bank through fixed-size windows of that many worlds
	// instead of materializing all n×⌈|E∪|/64⌉ mask words at once: peak bank
	// memory is bounded by Window×words, candidates are re-scanned per window
	// with persistent per-triangle totals, and the results are byte-identical
	// to the full-bank path (the windowed draw replays the identical PRNG
	// streams; see mc.Bank.WorldMasksWindow). Zero (the default) or a value
	// ≥ the sample count draws the full bank in one window.
	Window int
	// MemBudget, when positive and Window is zero, sizes the window
	// adaptively from a peak world-bank byte budget instead of a fixed world
	// count: the window becomes ⌊MemBudget / (⌈|E∪|/64⌉×8)⌋ worlds, clamped
	// to at least one world, so the bank's peak allocation stays within the
	// budget whenever a single world's mask row fits in it. An explicit
	// Window wins over MemBudget; results are byte-identical either way.
	MemBudget int64
	// Workers bounds the worker pool for possible-world sampling and
	// per-world evaluation: 0 (the default) means runtime.GOMAXPROCS, 1 runs
	// fully serial. Worlds are drawn from chunk-derived PRNGs (see package
	// mc), so results depend only on Seed, never on the worker count.
	Workers int
}

// nucleiRequest lifts (k, θ) plus the sampling knobs of o into the request
// struct the Engine serves — the one bridge the package-level wrappers cross.
func nucleiRequest(k int, theta float64, o MCOptions) NucleiRequest {
	return NucleiRequest{
		K:         k,
		Theta:     theta,
		Eps:       o.Eps,
		Delta:     o.Delta,
		Samples:   o.Samples,
		Seed:      o.Seed,
		Window:    o.Window,
		MemBudget: o.MemBudget,
		Local:     o.Local,
	}
}

// ProbNucleus is one probabilistic (k,θ)-nucleus produced by the global or
// weakly-global algorithm: the triangles it consists of, the subgraph they
// span, and the Monte-Carlo estimate of min_△ Pr(X ≥ k).
type ProbNucleus struct {
	K         int
	Theta     float64
	Triangles []graph.Triangle
	Vertices  []int32
	Edges     []graph.Edge
	// MinProb is the smallest estimated Pr̂(X_{H,△,g} ≥ k) over the nucleus's
	// triangles (≥ θ by construction).
	MinProb float64
}

// GlobalNuclei implements Algorithm 2: it finds the g-(k,θ)-nuclei of pg.
// Candidates are grown inside the union C of ℓ-(k,θ)-nuclei as 4-clique
// closures seeded at each triangle of C, then validated against a shared
// Monte-Carlo world stream, requiring Pr̂(X_{H,△,g} ≥ k) ≥ θ for every
// triangle.
//
// The n possible worlds are sampled once per call over the edge set of the
// whole candidate space C and shared by every candidate, so overlapping
// candidates — the common case, since closures grow from every seed
// triangle of C — never pay for resampling. Per candidate the marginal
// world distribution is unchanged (edges are kept independently with their
// probabilities either way), so each estimate keeps its (ε,δ) guarantee;
// only the PRNG stream assignment differs from the per-candidate sampler,
// which is why the golden snapshot was deliberately regenerated when the
// shared stream landed.
//
// Worlds are tested 64 at a time: each window of the bank is transposed
// once into per-edge lane words (mc.Lanes), and
// decomp.WorldChecker.ScanLanes evaluates the Definition 4 predicate —
// vertex connectivity, support ≥ k, 4-clique connectivity — on whole words,
// one bit lane per world. Every part of the predicate is a monotone
// fixpoint, so each lane reaches exactly its world's verdict.
//
// The per-seed pipeline is allocation-free at steady state and proportional
// to the candidate, not the graph: candidate growth runs on stamp arrays
// over a CSR clique layout, deduplication hashes sorted triangle-id sets,
// and the θ-prune reads the closure's own triangles' alive-world counts
// first, so a candidate it drops is never seeded. Only the survivors'
// world-check seeds are cut, from tables built once per call from the root
// incidence (decomp.WorldCheckUnion), by marking the candidate's edges —
// no per-candidate graph, index restriction or triangle-id lookup.
//
// The call serves the request on a one-shot one-shard Engine (see
// MCOptions.Local for the artifact it runs from), so the package-level path
// and the served path run the identical kernel.
func GlobalNuclei(pg *probgraph.Graph, k int, theta float64, opts MCOptions) ([]ProbNucleus, error) {
	return oneShot(pg, opts.Workers, nucleiRequest(k, theta, opts), opts.Local, (*Engine).GlobalPrepared)
}

// globalNuclei is the GlobalNuclei kernel for a validated request; it runs
// entirely on r's pool. Cancellation of the pool's bound context is observed
// between pool chunks, between Monte-Carlo world batches, and at every
// candidate, returning ctx.Err().
//
// It enumerates the deduplicated candidates once, then streams the shared
// bank past them window by window — the whole bank in one window by
// default, fixed-size windows when the request bounds the bank's memory.
// Each window's worlds are drawn from the same chunk-derived PRNG streams
// and add the same integers to a candidate's per-triangle qualifying-world
// totals, so every window cut reaches the same verdicts. A candidate is
// dropped as soon as some triangle is alive in fewer than `need` worlds even
// if it were alive in every world still to come: a triangle qualifies only
// where it is alive, so the scan could only confirm the failure. The
// closure's triangles are tested before the candidate is seeded, the few
// view triangles outside the closure after; a candidate dropped on the first
// window of a multi-window run keeps an empty span of totals.
func globalNuclei(r *run, req NucleiRequest) ([]ProbNucleus, error) {
	k, theta, pool := req.K, req.Theta, r.pool
	local, err := r.localResult(req)
	if err != nil {
		return nil, err
	}

	// C: union of ℓ-(k,θ)-nuclei, with its level-k clique structure. Its
	// distinct closures are the candidates; the dedup arena keeps each one.
	cand := newCandidateSpace(local, k)
	if len(cand.triangles) == 0 {
		return nil, nil
	}
	cands, err := cand.candidates(k, pool.Err)
	if err != nil {
		return nil, err
	}
	nc := cands.len()
	if r.obs != nil {
		for c := 0; c < nc; c++ {
			r.obs.Candidate(len(cands.set(int32(c))))
		}
	}

	// One shared world stream over the union of all candidate edges (every
	// candidate is a subgraph of it), sampled as a flat bank of edge
	// bitmasks.
	union := appendTriangleEdges(nil, cand.ti, cand.triangles)
	n := req.sampleCount()
	window := req.windowSize(n, len(union))
	upg := r.pre.pg.SubgraphOfEdges(union)
	// The root edge → union lane table lives in the shard's Monte-Carlo
	// scratch, which the weak kernel builds the same table in.
	r.weak.laneOf = decomp.LaneIndex(r.weak.laneOf, cand.g, union)
	est := newGlobalEstimator(pool, cand, union, r.weak.laneOf, n, theta)
	// live lists the candidates not dropped yet, in enumeration order.
	live := make([]int32, nc)
	for c := range live {
		live[c] = int32(c)
	}
	// A run of several windows keeps every candidate's per-triangle totals
	// from one window to the next, in totFlat[totOff[c]:totOff[c+1]] (laid
	// out on the first window); a one-window run needs only the totals of
	// the candidate at hand, in one reused slice.
	multi := window < n
	var totOff, totFlat, one []int32
	if multi {
		totOff = make([]int32, 1, nc+1)
	}
	var out []ProbNucleus
	var nb nucleusBuilder
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		masks, _ := r.bank.WorldMasksWindow(pool, upg, n, lo, hi, req.Seed)
		if err := pool.Err(); err != nil {
			return nil, err
		}
		est.setWindow(masks, hi-lo)
		kept := live[:0]
		for _, c := range live {
			if err := pool.Err(); err != nil {
				return nil, err
			}
			// The closure's triangles are view triangles, so the θ-prune
			// runs on them before any seed is cut; the seed then adds only
			// the view triangles outside the closure.
			closure := cands.set(c)
			m := 0
			dropped := est.closurePruned(closure, n-hi)
			if !dropped {
				m = est.seedCandidate(closure, k)
				dropped = est.extrasPruned(n - hi)
			}
			if multi && lo == 0 {
				// A candidate dropped on the first window keeps an empty
				// span of totals and never comes back.
				if !dropped {
					totFlat = append(totFlat, make([]int32, m)...)
				}
				totOff = append(totOff, int32(len(totFlat)))
			}
			if dropped {
				continue
			}
			kept = append(kept, c)
			var tot []int32
			if multi {
				tot = totFlat[totOff[c]:totOff[c+1]]
			} else {
				one = resizeCleared(one, m)
				tot = one
			}
			est.scanInto(tot)
			if hi < n {
				continue
			}
			if minProb, ok := est.tailVerdict(tot); ok {
				out = append(out, nb.build(cand.ti, closure, k, theta, minProb))
			}
		}
		live = kept
	}
	// The last candidate may have been scanned against a half-filled world
	// batch; one final check keeps cancelled calls from returning it.
	if err := pool.Err(); err != nil {
		return nil, err
	}
	sortNuclei(out)
	return out, nil
}

// candidateSpace is the union C of ℓ-(k,θ)-nuclei viewed as a set of
// triangles plus the 4-cliques among them whose triangles all reach level k.
// Cliques are enumerated once, through the local result's incidence
// (decomp.LevelCliques), and assigned dense ids; per-triangle clique
// membership is laid out CSR-style, and closure growth runs on generation-
// stamped scratch arrays — so growing a candidate allocates nothing beyond
// the first seed.
type candidateSpace struct {
	// ti is the root triangle index of graph g, and inc its incidence.
	ti  *graph.TriangleIndex
	inc *decomp.TriIncidence
	g   *graph.Graph
	// triangles lists the triangle ids of C (level ≥ k with at least one
	// level-k clique), in increasing order.
	triangles []int32
	// cliques holds every level-k 4-clique once, as the ids of its four
	// triangles; cliqueIDs[cliqueOff[t]:cliqueOff[t+1]] are the cliques
	// containing triangle t, in enumeration order.
	cliques   [][4]int32
	cliqueOff []int32
	cliqueIDs []int32
	// closure scratch: triStamp/clStamp mark membership in the current
	// generation, inCliques counts a member triangle's cliques inside the
	// candidate, members/queue back the growth worklist.
	gen       int32
	triStamp  []int32
	clStamp   []int32
	inCliques []int32
	members   []int32
	queue     []int32
}

func newCandidateSpace(local *LocalResult, k int) *candidateSpace {
	ti := local.TI
	n := ti.Len()
	cs := &candidateSpace{ti: ti, inc: local.incidence(), g: local.PG.G}
	decomp.LevelCliques(ti, cs.inc, local.Nucleusness, k, func(cl [4]int32) {
		cs.cliques = append(cs.cliques, cl)
	})
	cs.cliqueOff = make([]int32, n+1)
	for _, cl := range cs.cliques {
		for _, id := range cl {
			cs.cliqueOff[id+1]++
		}
	}
	for t := 0; t < n; t++ {
		cs.cliqueOff[t+1] += cs.cliqueOff[t]
	}
	cs.cliqueIDs = make([]int32, cs.cliqueOff[n])
	fill := make([]int32, n)
	for ci, cl := range cs.cliques {
		for _, id := range cl {
			cs.cliqueIDs[cs.cliqueOff[id]+fill[id]] = int32(ci)
			fill[id]++
		}
	}
	for t := int32(0); int(t) < n; t++ {
		if cs.cliqueOff[t+1] > cs.cliqueOff[t] {
			cs.triangles = append(cs.triangles, t)
		}
	}
	cs.triStamp = make([]int32, n)
	cs.clStamp = make([]int32, len(cs.cliques))
	cs.inCliques = make([]int32, n)
	return cs
}

func (cs *candidateSpace) cliquesOf(t int32) []int32 {
	return cs.cliqueIDs[cs.cliqueOff[t]:cs.cliqueOff[t+1]]
}

// addClique admits clique ci into the current candidate generation, stamping
// its four triangles as members and bumping their inside-clique counts. New
// members are appended to both worklists, which are returned grown.
func (cs *candidateSpace) addClique(ci, gen int32, members, queue []int32) ([]int32, []int32) {
	if cs.clStamp[ci] == gen {
		return members, queue
	}
	cs.clStamp[ci] = gen
	for _, id := range cs.cliques[ci] {
		if cs.triStamp[id] != gen {
			cs.triStamp[id] = gen
			cs.inCliques[id] = 0
			members = append(members, id)
			queue = append(queue, id)
		}
		cs.inCliques[id]++
	}
	return members, queue
}

// closure grows the candidate of Algorithm 2 lines 5-7: start with the
// cliques containing the seed, then repeatedly add cliques of C containing
// any member triangle that has fewer than k cliques inside the candidate.
// The returned sorted id slice aliases the scratch and is valid until the
// next closure call.
func (cs *candidateSpace) closure(seed int32, k int) []int32 {
	cs.gen++
	gen := cs.gen
	members, queue := cs.members[:0], cs.queue[:0]
	for _, ci := range cs.cliquesOf(seed) {
		members, queue = cs.addClique(ci, gen, members, queue)
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if k > 0 && int(cs.inCliques[t]) >= k {
			continue
		}
		// Triangle t needs more support (or k = 0: take all its cliques so
		// the candidate stays a union of cliques).
		for _, ci := range cs.cliquesOf(t) {
			members, queue = cs.addClique(ci, gen, members, queue)
			if k > 0 && int(cs.inCliques[t]) >= k {
				break
			}
		}
	}
	slices.Sort(members)
	cs.members, cs.queue = members, queue
	return members
}

// candidates enumerates the distinct candidates of Algorithm 2 (lines
// 4-7): it grows a closure from every seed triangle of C, in increasing id
// order, and keeps each one not grown before, in the order first grown.
// stop, when non-nil, is called before each seed is grown, and its error
// ends the enumeration.
//
// At k = 0 a closure takes every clique of every member, so it is its
// seed's whole 4-clique component: a seed that an earlier closure of this
// enumeration holds would only regrow that closure, and is skipped.
func (cs *candidateSpace) candidates(k int, stop func() error) (triSetDedup, error) {
	var d triSetDedup
	first := cs.gen + 1 // the generation of this enumeration's first closure
	for _, seed := range cs.triangles {
		if k == 0 && cs.triStamp[seed] >= first {
			continue
		}
		if stop != nil {
			if err := stop(); err != nil {
				return d, err
			}
		}
		d.insert(cs.closure(seed, k))
	}
	return d, nil
}

// appendTriangleEdges appends the edges spanned by the given triangles to
// dst, sorted canonically and deduplicated. Triangles are canonical (A<B<C),
// so each emitted edge already has U < V; the sort and in-place compaction
// allocate nothing once dst has grown to steady state.
func appendTriangleEdges(dst []graph.Edge, ti *graph.TriangleIndex, tris []int32) []graph.Edge {
	for _, t := range tris {
		tri := ti.Tris[t]
		dst = append(dst,
			graph.Edge{U: tri.A, V: tri.B},
			graph.Edge{U: tri.A, V: tri.C},
			graph.Edge{U: tri.B, V: tri.C})
	}
	slices.SortFunc(dst, compareEdges)
	return slices.Compact(dst)
}

// triSetDedup deduplicates sorted triangle-id sets by an FNV-1a style hash
// over the ids with an exact-equality fallback on hash collisions, so the
// dedup semantics are identical to comparing the sets themselves. Inserted
// sets are copied into one flat arena; nothing is built per lookup.
type triSetDedup struct {
	byHash map[uint64][]int32 // hash → indices of stored sets
	offs   []int32            // stored set i occupies flat[offs[i]:offs[i+1]]
	flat   []int32
}

func hashIDSet(ids []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= prime64
	}
	return h
}

// insert reports whether the set is new, recording it when so. The caller
// may reuse the backing of ids afterwards; stored sets live in the arena.
func (d *triSetDedup) insert(ids []int32) bool {
	if d.byHash == nil {
		d.byHash = make(map[uint64][]int32)
		d.offs = append(d.offs, 0)
	}
	h := hashIDSet(ids)
	for _, si := range d.byHash[h] {
		if slices.Equal(d.flat[d.offs[si]:d.offs[si+1]], ids) {
			return false
		}
	}
	si := int32(len(d.offs) - 1)
	d.flat = append(d.flat, ids...)
	d.offs = append(d.offs, int32(len(d.flat)))
	d.byHash[h] = append(d.byHash[h], si)
	return true
}

// len returns the number of distinct sets stored.
func (d *triSetDedup) len() int { return max(len(d.offs)-1, 0) }

// set returns stored set i, in insertion order; it aliases the arena.
func (d *triSetDedup) set(i int32) []int32 { return d.flat[d.offs[i]:d.offs[i+1]] }

// globalEstimator holds the per-candidate Monte-Carlo validation state of
// Algorithm 2: the current window of the shared world bank in lane-major
// form, the union tables every candidate's world-check seed is cut from, the
// per-union-triangle alive-world counts, one WorldChecker and count slice
// per pool worker, and the current candidate's seed. All of it is reused
// across candidates, so validating one more candidate allocates nothing at
// steady state.
//
// Each window is transposed once into per-edge lane words (mc.Lanes), shared
// by every candidate scanned against it: WorldChecker.ScanLanes tests the
// Definition 4 predicate on 64 worlds per machine word. The same lanes give
// every union triangle's alive-world count — its three edges present — once
// per window. Accumulated across windows, those counts bound any candidate
// triangle's qualifying count from above, which is what the θ-prune
// (closurePruned, extrasPruned) reads.
type globalEstimator struct {
	pool  *par.Pool
	words int
	n     int // total sampled worlds (across all windows)
	theta float64
	need  int32 // smallest count c with c/n ≥ θ
	// lanes holds the current window, transposed.
	lanes mc.Lanes

	checkers []decomp.WorldChecker
	counts   [][]int32
	seed     decomp.WorldCheckSeed

	// wu: the per-call seeding tables of the candidate union.
	wu *decomp.WorldCheckUnion
	// aliveCnt[u]: the worlds, over every window bound so far, in which
	// union triangle u's three edges are present.
	aliveCnt []int32

	// The hoisted pool closure (one per estimator, not one per candidate —
	// keeping the per-candidate steady state allocation-free).
	blockFn func(worker, b int)
}

// newGlobalEstimator binds an estimator for n sampled worlds at θ to the
// candidate space cs and its edge union, with laneOf the root edge → union
// lane table of decomp.LaneIndex.
func newGlobalEstimator(pool *par.Pool, cs *candidateSpace, union []graph.Edge, laneOf []int32, n int, theta float64) *globalEstimator {
	w := pool.Workers()
	ge := &globalEstimator{
		pool:     pool,
		words:    (len(union) + 63) / 64,
		n:        n,
		theta:    theta,
		need:     thetaNeed(theta, n),
		checkers: make([]decomp.WorldChecker, w),
		counts:   make([][]int32, w),
	}
	// The union tables: every triangle the union's edges span, with dense
	// ids in root order, cut from the root incidence. Candidates are
	// edge-subgraphs of the union, so their triangles all appear here; the
	// alive counts are indexed by these ids and every candidate seed is cut
	// from the tables built over them.
	ge.wu = decomp.NewWorldCheckUnion(cs.ti, cs.inc, cs.triangles, union, laneOf)
	ge.aliveCnt = make([]int32, ge.wu.Len())
	ge.blockFn = func(worker, b int) {
		ge.checkers[worker].ScanLanes(&ge.seed, ge.lanes.Block(b), ge.lanes.Valid(b), ge.counts[worker])
	}
	return ge
}

// setWindow binds the estimator to the next window of the shared bank —
// masks holds `worlds` consecutive world rows — by transposing it into lane
// blocks once (shared by every candidate scanned against the window), and
// adds each union triangle's alive worlds in the window to the totals the
// θ-prune reads: integer sums, the same at every window cut.
func (ge *globalEstimator) setWindow(masks []uint64, worlds int) {
	ge.lanes.Transpose(masks, worlds, ge.words)
	for b := 0; b < ge.lanes.Blocks(); b++ {
		ge.wu.CountAlive(ge.lanes.Block(b), ge.lanes.Valid(b), ge.aliveCnt)
	}
}

// seedCandidate binds the estimator to the candidate grown as closure (its
// sorted root triangle ids): cut the candidate's world-check seed from the
// union tables and clear the per-worker counts. Returns the candidate view's
// triangle count.
func (ge *globalEstimator) seedCandidate(closure []int32, k int) int {
	ge.seed.Seed(ge.wu, closure, k)
	m := ge.seed.Len()
	for w := range ge.counts {
		ge.counts[w] = resizeCleared(ge.counts[w], m)
	}
	return m
}

// The θ-prune drops a candidate that must fail with `remaining` worlds
// still to come after the current window: some view triangle's alive-world
// count so far, plus every remaining world, falls short of `need`. A
// triangle qualifies only in worlds where it is alive, so scanning on could
// only confirm the failure; with no world remaining this is the plain
// alive-count bound. The view is the closure plus the seed's extras, so the
// prune fires iff closurePruned or, once seeded, extrasPruned does.

// closurePruned runs the θ-prune on the closure's own triangles (sorted
// root ids), which needs no seed.
func (ge *globalEstimator) closurePruned(closure []int32, remaining int) bool {
	floor := ge.need - int32(remaining)
	if floor <= 0 {
		return false
	}
	for _, t := range closure {
		if ge.aliveCnt[ge.wu.UID(t)] < floor {
			return true
		}
	}
	return false
}

// extrasPruned runs the θ-prune on the view triangles of the candidate most
// recently bound with seedCandidate that lie outside its closure.
func (ge *globalEstimator) extrasPruned(remaining int) bool {
	floor := ge.need - int32(remaining)
	if floor <= 0 {
		return false
	}
	for _, u := range ge.seed.Extras() {
		if ge.aliveCnt[u] < floor {
			return true
		}
	}
	return false
}

// scanInto runs the current window's worlds against the candidate most
// recently bound with seedCandidate — 64-world lane blocks scored by
// per-worker checkers, connectivity walked over the candidate's own
// adjacency so union edges outside the candidate never connect it — and adds
// each triangle's qualifying-world count to totals, summing the per-worker
// counts in worker order: integer sums, so totals accumulated over any
// window cut and any worker count equal the serial full-bank counts exactly.
func (ge *globalEstimator) scanInto(totals []int32) {
	ge.pool.ForWorker(ge.lanes.Blocks(), ge.blockFn)
	for _, cw := range ge.counts {
		for j, c := range cw {
			totals[j] += c
		}
	}
}

// tailVerdict turns a candidate's complete per-triangle totals into its
// verdict: the smallest estimate Pr̂(X ≥ k) = total/n and whether every
// triangle clears θ, scanning in ascending triangle order and reporting the
// first failing triangle's estimate.
func (ge *globalEstimator) tailVerdict(totals []int32) (float64, bool) {
	minProb := 1.0
	for _, c := range totals {
		p := float64(c) / float64(ge.n)
		if p < minProb {
			minProb = p
		}
		if p < ge.theta {
			return p, false
		}
	}
	return minProb, true
}

// thetaNeed returns the smallest qualifying-world count c whose estimate
// c/n clears θ — the prune threshold: a triangle alive in fewer worlds can
// never reach it. Computed by float comparison on the exact quotients the
// estimates use, so the prune agrees with the scan bit-for-bit.
func thetaNeed(theta float64, n int) int32 {
	c := int(math.Ceil(theta * float64(n)))
	if c > n {
		c = n
	}
	for c > 0 && float64(c-1)/float64(n) >= theta {
		c--
	}
	for c <= n && float64(c)/float64(n) < theta {
		c++
	}
	return int32(c)
}

// resizeCleared returns s with length n and every element zero, reusing the
// backing array when it is large enough.
func resizeCleared(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// nucleusBuilder assembles ProbNuclei from triangle-id sets. Vertices and
// edges are spanned by a decomp.SpanBuilder, whose scratch is reused across
// calls, so a nucleus allocates only its own three result slices.
type nucleusBuilder struct {
	span decomp.SpanBuilder
}

func (nb *nucleusBuilder) build(ti *graph.TriangleIndex, tris []int32, k int, theta, minProb float64) ProbNucleus {
	nuc := ProbNucleus{K: k, Theta: theta, MinProb: minProb}
	if len(tris) == 0 {
		return nuc
	}
	nuc.Triangles = make([]graph.Triangle, len(tris))
	for i, t := range tris {
		nuc.Triangles[i] = ti.Tris[t]
	}
	nuc.Vertices, nuc.Edges = nb.span.Span(ti, tris)
	slices.SortFunc(nuc.Triangles, graph.Triangle.Compare)
	return nuc
}

// compareEdges orders edges by (U, V).
func compareEdges(a, b graph.Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

func sortNuclei(ns []ProbNucleus) {
	slices.SortFunc(ns, func(a, b ProbNucleus) int {
		if c := cmp.Compare(len(b.Vertices), len(a.Vertices)); c != 0 {
			return c
		}
		if len(a.Vertices) == 0 || len(b.Vertices) == 0 {
			return 0
		}
		return cmp.Compare(a.Vertices[0], b.Vertices[0])
	})
}
