package decomp

import (
	"math/bits"
	"slices"

	"probnucleus/internal/graph"
)

// WorldChecker evaluates the global-semantics world predicate (Definition 4;
// internal/exact holds the per-world reference form) for shared union
// worlds of one candidate subgraph: ScanLanes checks 64 worlds at a time
// against a WorldCheckSeed, one bit lane per world, and counts each
// triangle's qualifying worlds. The checker keeps its lane scratch across
// blocks and candidates, so it does not allocate at steady state. One
// checker serves one worker.
type WorldChecker struct {
	// Lane scratch of ScanLanes: reach holds a vertex's (then a triangle's)
	// reached lanes, tri a view triangle's alive lanes; queued and work back
	// the deduplicated fixpoint worklist (queued is all false between
	// calls).
	reach  []uint64
	tri    []uint64
	queued []bool
	work   []int32
}

// WorldCheckUnion holds the tables every candidate's WorldCheckSeed is cut
// from, computed once per global-algorithm call over the candidate union:
// the root triangles whose three edges are union edges, which the shared
// world masks are drawn over. Union ids follow root order. Every candidate
// is an edge-subgraph of the union, so its triangles and 4-clique
// completions are exactly the union ones whose edges all lie in the
// candidate; the tables below let WorldCheckSeed.Seed find them from the
// candidate's own edges, with O(1) mark tests and no lookup by vertex
// triple. Read-only after construction, so one union serves any number of
// seeds.
type WorldCheckUnion struct {
	// root[u]: union triangle u's root id, ascending. uid is the inverse:
	// root triangle t's union id, or -1 for a triangle outside the union.
	root []int32
	uid  []int32
	// triEdge[3u..3u+2]: union edge ids of union triangle u's three edges.
	triEdge []int32
	// byEdge[byEdgeOff[e]:byEdgeOff[e+1]]: the union triangles whose lowest
	// union edge id is e, ascending. A triangle lies in a candidate only if
	// its lowest edge does, so each one is reached from exactly one edge.
	byEdgeOff []int32
	byEdge    []int32
	// Completions, CSR per union triangle in ascending-z order: slot s of
	// triangle u is compOff[u]+j; compEdge[3s..3s+2] are the union ids of its
	// z-edges (A,z), (B,z) and (C,z), and compOther[3s..3s+2] the union ids
	// of the clique's other three triangles.
	compOff   []int32
	compEdge  []int32
	compOther []int32
	// vert lists the union's vertices ascending; edgeEnd[2e] and
	// edgeEnd[2e+1] are union edge e's endpoints as indexes into vert.
	vert    []int32
	edgeEnd []int32
}

// NewWorldCheckUnion builds the union tables of the union spanned by the
// root triangles tris (ids in ti), the way WorldPeelSeed.Seed cuts a
// candidate: inc is ti's incidence, union the canonical sorted edge list of
// those triangles, which the world masks are drawn over, and laneOf maps
// each root edge id of inc to its union edge id (see LaneIndex). laneOf is
// trusted only where the union edge it names is the root edge itself, so
// its entries for edges outside the union may hold anything.
//
// The union's root edges are collected once each, and each union triangle
// is reached once, from the incidence list of its lowest edge AB, then
// sorted into root order. A completion z of a union triangle survives iff
// the clique's other three triangles — found by the sibling walk of inc —
// are union triangles, and its z-edges' union ids come from those
// siblings' edges through laneOf. No step looks a triangle up by vertex
// triple.
func NewWorldCheckUnion(ti *graph.TriangleIndex, inc *TriIncidence, tris []int32, union []graph.Edge, laneOf []int32) *WorldCheckUnion {
	// inUnion reports whether root edge e = (a, b), a < b, is a union edge.
	inUnion := func(e, a, b int32) bool {
		l := laneOf[e]
		return l >= 0 && int(l) < len(union) && union[l] == graph.Edge{U: a, V: b}
	}
	seen := make([]bool, len(union))
	var edges []int32
	for _, t := range tris {
		for _, e := range inc.triEdge[3*t : 3*t+3] {
			if l := laneOf[e]; !seen[l] {
				seen[l] = true
				edges = append(edges, e)
			}
		}
	}
	var root []int32
	for _, e := range edges {
		for _, ent := range inc.edge(e) {
			t := int32(uint32(ent))
			te := inc.triEdge[3*t : 3*t+3]
			tri := ti.Tris[t]
			if te[0] == e && inUnion(te[1], tri.A, tri.C) && inUnion(te[2], tri.B, tri.C) {
				root = append(root, t)
			}
		}
	}
	slices.Sort(root)
	uT := len(root)
	u := &WorldCheckUnion{
		root:      root,
		uid:       make([]int32, ti.Len()),
		triEdge:   make([]int32, 3*uT),
		byEdgeOff: make([]int32, len(union)+1),
		byEdge:    make([]int32, uT),
		compOff:   make([]int32, uT+1),
	}
	for t := range u.uid {
		u.uid[t] = -1
	}
	for i, t := range root {
		u.uid[t] = int32(i)
		e := u.triEdge[3*i : 3*i+3]
		for j, re := range inc.triEdge[3*t : 3*t+3] {
			e[j] = laneOf[re]
		}
		u.byEdgeOff[min(e[0], e[1], e[2])+1]++
	}
	for e := range union {
		u.byEdgeOff[e+1] += u.byEdgeOff[e]
	}
	fill := make([]int32, len(union))
	for i := 0; i < uT; i++ {
		lo := min(u.triEdge[3*i], u.triEdge[3*i+1], u.triEdge[3*i+2])
		u.byEdge[u.byEdgeOff[lo]+fill[lo]] = int32(i)
		fill[lo]++
	}
	// Every root completion of a union triangle bounds the survivors.
	slots := 0
	for _, t := range root {
		slots += len(ti.Comps[t])
	}
	u.compOther = make([]int32, 0, 3*slots)
	for i, t := range root {
		sib := inc.siblings(t)
		for _, z := range ti.Comps[t] {
			o := sib.next(z)
			if a, b, c := u.uid[o[0]], u.uid[o[1]], u.uid[o[2]]; a >= 0 && b >= 0 && c >= 0 {
				u.compOther = append(u.compOther, a, b, c)
			}
		}
		u.compOff[i+1] = int32(len(u.compOther) / 3)
	}
	// A union may be kept for many calls (a candidate plan): hold only the
	// surviving slots, not the bound on them.
	u.compOther = slices.Clone(u.compOther)
	// (A,z) and (B,z) are edges of (A,B,z), and (C,z) of (A,C,z).
	u.compEdge = make([]int32, len(u.compOther))
	for i, t := range root {
		tri := ti.Tris[t]
		for b := 3 * u.compOff[i]; b < 3*u.compOff[i+1]; b += 3 {
			abz, acz := root[u.compOther[b]], root[u.compOther[b+1]]
			u.compEdge[b] = laneOf[inc.edgeAvoiding(ti, abz, tri.B)]
			u.compEdge[b+1] = laneOf[inc.edgeAvoiding(ti, abz, tri.A)]
			u.compEdge[b+2] = laneOf[inc.edgeAvoiding(ti, acz, tri.A)]
		}
	}
	u.vert = make([]int32, 0, 2*len(union))
	for _, e := range union {
		u.vert = append(u.vert, e.U, e.V)
	}
	slices.Sort(u.vert)
	u.vert = slices.Clip(slices.Compact(u.vert))
	u.edgeEnd = make([]int32, 2*len(union))
	for i, e := range union {
		a, _ := slices.BinarySearch(u.vert, e.U)
		b, _ := slices.BinarySearch(u.vert, e.V)
		u.edgeEnd[2*i], u.edgeEnd[2*i+1] = int32(a), int32(b)
	}
	return u
}

// Len returns the number of union triangles: the width of any
// per-union-triangle accumulator.
func (u *WorldCheckUnion) Len() int { return len(u.root) }

// Root returns union triangle uid's root id: test support, for naming a
// seed's triangles (see WorldCheckSeed.AliveUID) in the root index.
func (u *WorldCheckUnion) Root(uid int32) int32 { return u.root[uid] }

// UID returns root triangle t's union id, or -1 for a triangle outside the
// union: t's slot in any per-union-triangle accumulator.
func (u *WorldCheckUnion) UID(t int32) int32 { return u.uid[t] }

// CountAlive adds to cnt[t], for every union triangle t, the number of valid
// worlds of one 64-world lane block (lanes indexed by union edge id, as
// mc.Lanes.Block returns them) in which t's three edges are all present.
func (u *WorldCheckUnion) CountAlive(lanes []uint64, valid uint64, cnt []int32) {
	for t, b := 0, 0; b < len(u.triEdge); t, b = t+1, b+3 {
		e := u.triEdge[b : b+3 : b+3]
		cnt[t] += int32(bits.OnesCount64(valid & lanes[e[0]] & lanes[e[1]] & lanes[e[2]]))
	}
}

// WorldCheckSeed precomputes, for one candidate of the global algorithm,
// everything the Definition 4 world predicate needs to be evaluated on
// shared union worlds from their per-edge lane words alone: the union ids of
// the candidate's triangles (whose union edge ids give a triangle's alive
// lanes), each 4-clique completion's other three triangles as candidate view
// ids (for the support count and 4-clique connectivity), and the
// candidate's adjacency over candidate-local vertex ids annotated with union
// edge ids (for vertex connectivity). Seed cuts it from a WorldCheckUnion in
// time proportional to the candidate; it is then shared read-only by
// per-worker checkers (see WorldChecker.ScanLanes).
type WorldCheckSeed struct {
	k int
	u *WorldCheckUnion
	// triUID[t]: view triangle t's union id, ascending — view ids are the
	// candidate's triangles in root order.
	triUID []int32
	// Completions, CSR per view triangle: completion j of triangle t occupies
	// slot compOff[t]+j; compOther[3s..3s+2] are the view ids of the clique's
	// other three triangles.
	compOff   []int32
	compOther []int32
	// verts[i] is candidate-local vertex i as an index into the union's
	// vertex list; the predicate requires the world to connect all of them.
	// The adjacency (both directions, candidate-local ids) carries the union
	// edge id of every entry, for the lane reachability walk.
	verts   []int32
	adjOff  []int32
	adjVert []int32
	adjBit  []int32
	// extra: the union ids of the view triangles outside the seeding
	// triangles, ascending (see Extras).
	extra []int32
	// Per-union scratch reused across Seed calls: edgeStamp marks the
	// current candidate's union edges, vertStamp its vertices and triStamp
	// its seeding triangles (current iff equal to gen), local maps a marked
	// vertex to its candidate-local id, viewID a candidate triangle's union
	// id to its view id.
	gen       int32
	edgeStamp []int32
	vertStamp []int32
	triStamp  []int32
	local     []int32
	viewID    []int32
	edges     []int32
	cursor    []int32
}

// Seed binds the seed to the candidate spanned by the union triangles tris
// (root ids; its edges are the triangles' edges) at nucleus level k. The
// candidate's view holds every union triangle whose three edges are
// candidate edges — the seeding triangles themselves and any extra ones
// their edges span (see Extras) — and its completions are the union
// completions whose z-edges are candidate edges. tris is best given in
// ascending order, as closures are: union ids follow root order, so the
// seeding triangles then enter the view already sorted and only the extras,
// usually none, are sorted and merged in; any other order is sorted first.
// No step touches the root index or more of the union than the candidate's
// edges and their triangles; all storage is reused across candidates of any
// size.
func (s *WorldCheckSeed) Seed(u *WorldCheckUnion, tris []int32, k int) {
	s.u, s.k = u, k
	s.growStamps(u)
	gen := nextGen(&s.gen, s.edgeStamp, s.vertStamp, s.triStamp)
	marked := func(e int32) bool { return s.edgeStamp[e] == gen }

	// The seeding triangles are view triangles: stamp them and take their
	// union ids in the order given while marking their edges.
	uids, edges := s.triUID[:0], s.edges[:0]
	sorted := true
	for _, rt := range tris {
		t := u.uid[rt]
		if s.triStamp[t] == gen {
			continue
		}
		s.triStamp[t] = gen
		if n := len(uids); n > 0 && uids[n-1] > t {
			sorted = false
		}
		uids = append(uids, t)
		for _, e := range u.triEdge[3*t : 3*t+3] {
			if !marked(e) {
				s.edgeStamp[e] = gen
				edges = append(edges, e)
			}
		}
	}
	if !sorted {
		slices.Sort(uids)
	}
	s.edges = edges

	// The edge walk reaches every view triangle once, from its lowest edge;
	// only the unstamped ones are new.
	extra := s.extra[:0]
	for _, e := range edges {
		for _, t := range u.byEdge[u.byEdgeOff[e]:u.byEdgeOff[e+1]] {
			b := 3 * t
			if s.triStamp[t] != gen && marked(u.triEdge[b]) && marked(u.triEdge[b+1]) && marked(u.triEdge[b+2]) {
				extra = append(extra, t)
			}
		}
	}
	s.extra = extra
	if len(extra) > 0 {
		slices.Sort(extra)
		uids = mergeAscending(uids, extra)
	}
	s.triUID = uids
	for i, t := range uids {
		s.viewID[t] = int32(i)
	}

	// A union completion survives iff its z-edges are candidate edges; its
	// other three triangles are then candidate triangles too.
	compOff := append(s.compOff[:0], 0)
	other := s.compOther[:0]
	for _, t := range uids {
		for j := u.compOff[t]; j < u.compOff[t+1]; j++ {
			b := 3 * j
			if marked(u.compEdge[b]) && marked(u.compEdge[b+1]) && marked(u.compEdge[b+2]) {
				o := u.compOther[b : b+3]
				other = append(other, s.viewID[o[0]], s.viewID[o[1]], s.viewID[o[2]])
			}
		}
		compOff = append(compOff, int32(len(other)/3))
	}
	s.compOff, s.compOther = compOff, other

	verts := s.verts[:0]
	for _, e := range edges {
		for _, v := range u.edgeEnd[2*e : 2*e+2] {
			if s.vertStamp[v] != gen {
				s.vertStamp[v] = gen
				s.local[v] = int32(len(verts))
				verts = append(verts, v)
			}
		}
	}
	s.verts = verts
	nv := len(verts)
	s.adjOff = resizeCleared32(s.adjOff, nv+1)
	for _, e := range edges {
		s.adjOff[s.local[u.edgeEnd[2*e]]+1]++
		s.adjOff[s.local[u.edgeEnd[2*e+1]]+1]++
	}
	for v := 0; v < nv; v++ {
		s.adjOff[v+1] += s.adjOff[v]
	}
	deg := 2 * len(edges)
	if cap(s.adjVert) < deg {
		s.adjVert = make([]int32, deg)
		s.adjBit = make([]int32, deg)
	}
	s.adjVert, s.adjBit = s.adjVert[:deg], s.adjBit[:deg]
	cursor := resizeCleared32(s.cursor, nv)
	s.cursor = cursor
	for _, e := range edges {
		a, b := s.local[u.edgeEnd[2*e]], s.local[u.edgeEnd[2*e+1]]
		pa, pb := s.adjOff[a]+cursor[a], s.adjOff[b]+cursor[b]
		s.adjVert[pa], s.adjBit[pa] = b, e
		s.adjVert[pb], s.adjBit[pb] = a, e
		cursor[a]++
		cursor[b]++
	}
}

// growStamps grows the seed's union-indexed scratch to u's size.
func (s *WorldCheckSeed) growStamps(u *WorldCheckUnion) {
	if ne := len(u.edgeEnd) / 2; len(s.edgeStamp) < ne {
		s.edgeStamp = make([]int32, ne)
	}
	if nv := len(u.vert); len(s.vertStamp) < nv {
		s.vertStamp = make([]int32, nv)
		s.local = make([]int32, nv)
	}
	if len(s.viewID) < u.Len() {
		s.viewID = make([]int32, u.Len())
		s.triStamp = make([]int32, u.Len())
	}
}

// nextGen advances the generation counter *gen, whose stamps mark
// membership by equality with it, and returns the new generation. When the
// counter would wrap it clears the stamp arrays and restarts at 1, so
// neither a stamp of an earlier generation nor a never-set zero can equal
// the current one, however many generations a long-lived seed runs.
func nextGen(gen *int32, stamps ...[]int32) int32 {
	if *gen++; *gen <= 0 {
		for _, s := range stamps {
			clear(s)
		}
		*gen = 1
	}
	return *gen
}

// CheckSize measures a candidate by the storage its WorldCheckSeed, and a
// WorldChecker scanning it, need: its view triangles, surviving 4-clique
// completions, vertices, edges and extra triangles (see Extras). Max of
// the sizes of a set of candidates bounds them all, field by field.
type CheckSize struct {
	Tris, Comps, Verts, Edges, Extras int
}

// Max returns the field-by-field maximum of z and o.
func (z CheckSize) Max(o CheckSize) CheckSize {
	return CheckSize{
		Tris:   max(z.Tris, o.Tris),
		Comps:  max(z.Comps, o.Comps),
		Verts:  max(z.Verts, o.Verts),
		Edges:  max(z.Edges, o.Edges),
		Extras: max(z.Extras, o.Extras),
	}
}

// Size returns the size of the candidate the seed is bound to.
func (s *WorldCheckSeed) Size() CheckSize {
	return CheckSize{
		Tris:   len(s.triUID),
		Comps:  len(s.compOther) / 3,
		Verts:  len(s.verts),
		Edges:  len(s.edges),
		Extras: len(s.extra),
	}
}

// Reserve grows the seed's storage to bind any candidate of u no larger
// than z, so that Seed allocates nothing for one: a seed reserved for the
// largest candidates of a set then stays the same size whichever of them it
// is bound to. The candidate the seed is bound to stays bound.
func (s *WorldCheckSeed) Reserve(u *WorldCheckUnion, z CheckSize) {
	s.growStamps(u)
	s.triUID = reserve(s.triUID, z.Tris)
	s.compOff = reserve(s.compOff, z.Tris+1)
	s.compOther = reserve(s.compOther, 3*z.Comps)
	s.verts = reserve(s.verts, z.Verts)
	s.adjOff = reserve(s.adjOff, z.Verts+1)
	s.cursor = reserve(s.cursor, z.Verts)
	s.edges = reserve(s.edges, z.Edges)
	s.adjVert = reserve(s.adjVert, 2*z.Edges)
	s.adjBit = reserve(s.adjBit, 2*z.Edges)
	s.extra = reserve(s.extra, z.Extras)
}

// reserve returns s, its contents kept, with a capacity of at least n.
func reserve[S ~[]E, E any](s S, n int) S {
	if n > len(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s
}

// Release drops the seed's reference to the union tables it was last cut
// from, so that a seed kept between calls does not keep them alive. The
// seed must be bound again by Seed before it is read.
func (s *WorldCheckSeed) Release() { s.u = nil }

// Len returns the candidate view's triangle count: view ids are 0..Len()-1.
func (s *WorldCheckSeed) Len() int { return len(s.triUID) }

// AliveUID returns candidate view triangle t's union id: the index of its
// slot in any per-union-triangle accumulator, such as the alive-world counts
// of WorldCheckUnion.CountAlive.
func (s *WorldCheckSeed) AliveUID(t int) int32 { return s.triUID[t] }

// Extras returns the union ids, ascending, of the view triangles that are
// not among the seeding triangles: the ones the candidate's edges span
// beyond them. The slice aliases the seed.
func (s *WorldCheckSeed) Extras() []int32 { return s.extra }

// mergeAscending merges the ascending, disjoint id list b into the
// ascending list a, from the back so no scratch is needed, and returns the
// merged list (a grown by len(b)).
func mergeAscending(a, b []int32) []int32 {
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	for w := len(a) - 1; j >= 0; w-- {
		if i >= 0 && a[i] > b[j] {
			a[w], i = a[i], i-1
		} else {
			a[w], j = b[j], j-1
		}
	}
	return a
}

// Completions and AppendVertices are test-support accessors: they expose
// the seed's completion tables and vertex set so tests in other packages
// can compare a seed against a reference construction. The global kernel
// does not call them; it reads the seed only through Len, AliveUID and
// ScanLanes.

// Completions returns the surviving 4-clique completions of view triangle t,
// three entries per completion: the view ids of the clique's other three
// triangles. The slice aliases the seed. Test support only.
func (s *WorldCheckSeed) Completions(t int) []int32 {
	return s.compOther[3*s.compOff[t] : 3*s.compOff[t+1]]
}

// AppendVertices appends the candidate's vertices (original vertex ids, in
// candidate-local id order) to dst. Test support only.
func (s *WorldCheckSeed) AppendVertices(dst []int32) []int32 {
	for _, v := range s.verts {
		dst = append(dst, s.u.vert[v])
	}
	return dst
}

// ScanLanes evaluates the Definition 4 world predicate for one block of up
// to 64 shared union worlds against the candidate bound to seed, one bit
// lane per world. lanes holds the block's lane words indexed by union edge
// id — bit j of lanes[e] is set iff union edge e exists in the block's world
// j (see mc.Lanes) — and valid marks the lanes that hold a world. For every
// candidate view triangle t it adds to counts[t] the number of valid worlds
// that satisfy the predicate and contain t: what the per-world predicate
// credits on each world of the block restricted to the candidate.
//
// Each part of the predicate is a monotone fixpoint, so it runs on whole
// words — the multi-source bit-parallel traversal of MS-BFS (Then et al.,
// "The More the Merrier", VLDB 2014) applied to one graph under 64 edge
// masks — while q, the word of lanes still qualifying, only shrinks:
//
//   - Vertex connectivity is reachability from candidate vertex 0, an edge
//     carrying the lanes in which it exists; q is the AND of every vertex's
//     reached lanes.
//   - A triangle is alive in the lanes of q in which its three edges exist;
//     for k ≥ 1 a lane with no alive triangle fails.
//   - Support: every alive triangle needs at least k alive 4-clique
//     completions. A clique is alive iff its four triangles are, since
//     their edges are the clique's six; the per-lane counts are bit-sliced
//     (laneCount, shared with the weak kernel).
//   - 4-clique connectivity is reachability over alive cliques from each
//     lane's lowest alive triangle; a lane fails if some alive triangle is
//     not reached.
//
// A reachability word only gains lanes, and it gains lane j exactly when
// the per-world search of world j would reach that vertex or triangle, so
// at the fixpoint every lane holds that world's verdict and the counts
// equal the per-world scan's.
func (wc *WorldChecker) ScanLanes(seed *WorldCheckSeed, lanes []uint64, valid uint64, counts []int32) {
	q := wc.connectedLanes(seed, lanes, valid)
	if q == 0 {
		return
	}
	m := seed.Len()
	if cap(wc.tri) < m {
		wc.tri = make([]uint64, m)
	}
	tri := wc.tri[:m]
	var some uint64 // lanes with at least one alive triangle
	for t, u := range seed.triUID {
		e := seed.u.triEdge[3*u : 3*u+3 : 3*u+3]
		tri[t] = q & lanes[e[0]] & lanes[e[1]] & lanes[e[2]]
		some |= tri[t]
	}
	if seed.k > 0 {
		// A lane without triangles has nothing whose support can reach
		// k ≥ 1, and a k-nucleus must contain triangles.
		if q &= some; q != 0 {
			q = supportedLanes(seed, tri, q)
		}
		if q != 0 {
			q = wc.cliqueConnectedLanes(seed, tri, q)
		}
		if q == 0 {
			return
		}
	}
	for t, w := range tri {
		counts[t] += int32(bits.OnesCount64(q & w))
	}
}

// connectedLanes returns the lanes of valid in which the world's candidate
// edges connect all of the candidate's vertices: lane reachability from
// candidate-local vertex 0 over the seed's adjacency, run to its fixpoint
// with a deduplicated worklist, and stopped early once every vertex is
// reached in every lane.
func (wc *WorldChecker) connectedLanes(seed *WorldCheckSeed, lanes []uint64, valid uint64) uint64 {
	nv := len(seed.verts)
	if nv <= 1 {
		return valid
	}
	reach, queued := wc.laneScratch(nv)
	reach[0] = valid
	queued[0] = true
	work := append(wc.work[:0], 0)
	full := 1 // vertices reached in every valid lane
	for len(work) > 0 && full < nv {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		queued[v] = false
		rv := reach[v]
		for i := seed.adjOff[v]; i < seed.adjOff[v+1]; i++ {
			w := seed.adjVert[i]
			add := rv & lanes[seed.adjBit[i]] &^ reach[w]
			if add == 0 {
				continue
			}
			if reach[w] |= add; reach[w] == valid {
				full++
			}
			if !queued[w] {
				queued[w] = true
				work = append(work, w)
			}
		}
	}
	for _, v := range work { // left over by the early stop
		queued[v] = false
	}
	wc.work = work[:0]
	if full == nv {
		return valid
	}
	q := valid
	for _, r := range reach {
		q &= r
	}
	return q
}

// supportedLanes returns the lanes of q in which every alive triangle (tri,
// whose words lie within q) has at least seed.k ≥ 1 alive 4-clique
// completions, stopping a triangle's count as soon as each of its live
// lanes has reached k.
func supportedLanes(seed *WorldCheckSeed, tri []uint64, q uint64) uint64 {
	k := seed.k
	nb := bits.Len(uint(k))
	for t, live := range tri {
		if live &= q; live == 0 {
			continue
		}
		comp := seed.compOther[3*seed.compOff[t] : 3*seed.compOff[t+1]]
		reached := uint64(0)
		if len(comp)/3 >= k {
			c := laneCount{nb: nb}
			for i := 0; i < len(comp); i += 3 {
				c.add(live & tri[comp[i]] & tri[comp[i+1]] & tri[comp[i+2]])
				if i < 3*(k-1) {
					continue // no lane can have reached k yet
				}
				if reached = c.atLeast(k); reached == live {
					break
				}
			}
		}
		if q &^= live &^ reached; q == 0 {
			return 0
		}
	}
	return q
}

// cliqueConnectedLanes returns the lanes of q in which the alive triangles
// (tri) are pairwise 4-clique-connected: lane reachability over alive
// cliques, started in every lane from that lane's lowest alive triangle and
// run to its fixpoint with a deduplicated worklist.
func (wc *WorldChecker) cliqueConnectedLanes(seed *WorldCheckSeed, tri []uint64, q uint64) uint64 {
	reach, queued := wc.laneScratch(len(tri))
	work := wc.work[:0]
	var seen uint64
	for t, w := range tri {
		if start := q & w &^ seen; start != 0 {
			seen |= start
			reach[t] = start
			queued[t] = true
			work = append(work, int32(t))
		}
	}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		queued[t] = false
		rt := reach[t]
		comp := seed.compOther[3*seed.compOff[t] : 3*seed.compOff[t+1]]
		for i := 0; i < len(comp); i += 3 {
			o := comp[i : i+3 : i+3]
			cw := rt & tri[o[0]] & tri[o[1]] & tri[o[2]]
			if cw == 0 {
				continue
			}
			for _, x := range o {
				if add := cw &^ reach[x]; add != 0 {
					reach[x] |= add
					if !queued[x] {
						queued[x] = true
						work = append(work, x)
					}
				}
			}
		}
	}
	wc.work = work
	for t, w := range tri {
		q &^= w &^ reach[t]
	}
	return q
}

// Reserve grows the checker's scratch to scan any seed no larger than z, so
// that ScanLanes allocates nothing for one.
func (wc *WorldChecker) Reserve(z CheckSize) {
	n := max(z.Tris, z.Verts)
	if cap(wc.reach) < n {
		wc.reach = make([]uint64, n)
		wc.queued = make([]bool, n)
	}
	if cap(wc.tri) < z.Tris {
		wc.tri = make([]uint64, z.Tris)
	}
	wc.work = reserve(wc.work, n)
}

// laneScratch returns the checker's reach words cleared to length n and its
// worklist flags (all false) of the same length, growing both together.
func (wc *WorldChecker) laneScratch(n int) ([]uint64, []bool) {
	if cap(wc.reach) < n {
		wc.reach = make([]uint64, n)
		wc.queued = make([]bool, n)
	}
	reach := wc.reach[:n]
	clear(reach)
	return reach, wc.queued[:n]
}

// WorldMembershipScorer evaluates, for shared union worlds of one candidate
// subgraph, which candidate triangles have deterministic nucleusness ≥ k in
// the world — the predicate 1w(G, △, k) of Definition 4 for all triangles at
// once; internal/exact holds the per-world reference form. ScoreLanes scores
// 64 worlds at a time against a WorldPeelSeed, one bit lane per world, and
// counts each core triangle's losses into a flat per-triangle slot. One
// scorer serves one worker; its scratch is reused across candidates and
// worlds.
type WorldMembershipScorer struct {
	// Word-parallel scratch (see ScoreLanes), indexed by view id: each core
	// triangle's alive lanes, and the fixpoint worklist with its
	// deduplication flags (all false between calls).
	alive  []uint64
	queued []bool
	work   []int32
}

// WorldPeelSeed is the per-candidate precomputation behind w-NuDecomp's
// world scoring: the candidate's level-k core, with every core triangle's
// three edges as union lanes and the core's 4-cliques laid out as flat
// triangle→clique incidence. A sampled world can only lose cliques relative
// to the candidate, so the triangles that qualify in it are the k-core of
// the core triangles whose three edges the world keeps: the greatest subset
// in which every triangle lies in at least k 4-cliques of the subset.
// WorldMembershipScorer.ScoreLanes computes that fixpoint for 64 worlds at
// once, one bit lane per world.
//
// Seed cuts the seed from the root triangle index and its edge→triangle
// incidence, in time proportional to the candidate and reusing all storage
// across candidates of any size. Clone keeps a cut binding without the
// root-indexed cut scratch, and any number of scorers then share it
// read-only.
type WorldPeelSeed struct {
	k int
	// root[v] is view triangle v's root id. The view is every root triangle
	// whose three edges are candidate edges, in root order, so view ids
	// follow root ids.
	root []int32
	// core: the view ids (ascending) with candidate nucleusness ≥ k — by
	// monotonicity under subgraphs, a triangle outside the core qualifies
	// in no world. inCore is the matching membership mask.
	core   []int32
	inCore []bool
	// coreEdge[3i:3i+3] are the union lanes of core triangle core[i]'s edges
	// AB, AC and BC: the lanes its aliveness starts from.
	coreEdge []int32
	// cliques holds every 4-clique of the core once, as its four member view
	// ids; clIDs[clOff[t]:clOff[t+1]] are the cliques containing triangle t.
	cliques [][4]int32
	clOff   []int32
	clIDs   []int32
	// Root-indexed scratch reused across Seed calls: edgeStamp marks the
	// current candidate's edges and triStamp its view triangles (current iff
	// equal to gen), and viewID maps a marked triangle to its view id.
	gen       int32
	edgeStamp []int32
	triStamp  []int32
	viewID    []int32
	// Per-candidate scratch: the candidate's root edge ids, and the k-core
	// fixpoint's supports, dead-clique flags and worklist.
	edges  []int32
	sup    []int32
	clDead []bool
	work   []int32
}

// Len returns the candidate view's triangle count: view ids are 0..Len()-1.
func (s *WorldPeelSeed) Len() int { return len(s.root) }

// Root returns view triangle v's root id.
func (s *WorldPeelSeed) Root(v int32) int32 { return s.root[v] }

// ViewID returns the view id of root triangle t, which must lie in the
// view of the candidate the seed is bound to (every triangle the candidate
// was seeded from does).
func (s *WorldPeelSeed) ViewID(t int32) int32 { return s.viewID[t] }

// InCore reports whether view id v lies in the level-k core.
func (s *WorldPeelSeed) InCore(v int32) bool { return s.inCore[v] }

// Cliques returns every 4-clique of the candidate's level-k core once, as
// its four member view ids: the cliques whose four triangles all lie in the
// core (for k = 0, every 4-clique of the view). The slice aliases the seed
// and is valid until the next Seed call.
func (s *WorldPeelSeed) Cliques() [][4]int32 { return s.cliques }

// Clone returns the candidate binding of s — its view, level-k core, core
// edge lanes and clique layout — in storage of its own, sized to fit, and
// none of the scratch Seed cuts with: Len, Root, InCore and Cliques answer
// as on s, ScoreLanes scores it as it scores s, and ViewID, whose table is
// root-indexed scratch, must not be called on it. A clone is never seeded
// again, so any number of scorers may read it at once.
func (s *WorldPeelSeed) Clone() WorldPeelSeed {
	return WorldPeelSeed{
		k:        s.k,
		root:     slices.Clone(s.root),
		core:     slices.Clone(s.core),
		inCore:   slices.Clone(s.inCore),
		coreEdge: slices.Clone(s.coreEdge),
		cliques:  slices.Clone(s.cliques),
		clOff:    slices.Clone(s.clOff),
		clIDs:    slices.Clone(s.clIDs),
	}
}

// Seed binds the seed to the candidate spanned by the root triangles tris
// (ids in ti, in any order) at nucleus level k. inc is ti's incidence, and
// laneOf maps each root edge id of inc to the union lane the shared worlds
// draw it on; it is read only at the candidate's edges.
//
// The candidate's view is every root triangle whose three edges are
// candidate edges: the triangles a restriction of ti to the candidate's
// edge subgraph would index, with the same ids in the same order. Each is
// reached once, from the incidence list of its lowest edge, AB, whose CSR
// position precedes AC's and BC's. A 4-clique lies in the candidate iff its
// four triangles are view triangles; each is laid out once, at its
// lexicographically first triangle, by a sibling walk of inc. The level-k
// core is then the k-core of those cliques — the greatest set of view
// triangles each lying in at least k cliques of the set, which is exactly
// the set of view triangles of candidate nucleusness ≥ k — found by a
// deletion fixpoint (Batagelj–Zaveršnik) rather than a full peel. For
// k = 0 the core is the whole view, and a triangle qualifies in a world iff
// its three edges survive (Lemma 2 semantics); the cliques are still laid
// out, since w-NuDecomp assembles its nuclei from them. No step looks a
// triangle up by vertex triple or touches more of ti than the candidate's
// edges and their triangles.
func (s *WorldPeelSeed) Seed(ti *graph.TriangleIndex, inc *TriIncidence, tris []int32, laneOf []int32, k int) {
	s.k = k
	if ne := len(inc.off) - 1; len(s.edgeStamp) < ne {
		s.edgeStamp = make([]int32, ne)
	}
	if nt := ti.Len(); len(s.triStamp) < nt {
		s.triStamp = make([]int32, nt)
		s.viewID = make([]int32, nt)
	}
	gen := nextGen(&s.gen, s.edgeStamp, s.triStamp)
	edges := s.edges[:0]
	for _, t := range tris {
		for _, e := range inc.triEdge[3*t : 3*t+3] {
			if s.edgeStamp[e] != gen {
				s.edgeStamp[e] = gen
				edges = append(edges, e)
			}
		}
	}
	s.edges = edges

	root := s.root[:0]
	for _, e := range edges {
		for _, ent := range inc.edge(e) {
			t := int32(uint32(ent))
			te := inc.triEdge[3*t : 3*t+3]
			if te[0] == e && s.edgeStamp[te[1]] == gen && s.edgeStamp[te[2]] == gen {
				root = append(root, t)
			}
		}
	}
	slices.Sort(root)
	s.root = root
	for v, t := range root {
		s.triStamp[t] = gen
		s.viewID[t] = int32(v)
	}

	cliques := s.cliques[:0]
	for v, t := range root {
		tri := ti.Tris[t]
		zs := ti.Comps[t]
		i, _ := slices.BinarySearch(zs, tri.C+1)
		if i == len(zs) {
			continue
		}
		sib := inc.siblings(t)
		for _, z := range zs[i:] {
			ids := sib.next(z)
			if s.triStamp[ids[0]] == gen && s.triStamp[ids[1]] == gen && s.triStamp[ids[2]] == gen {
				cliques = append(cliques, [4]int32{int32(v), s.viewID[ids[0]], s.viewID[ids[1]], s.viewID[ids[2]]})
			}
		}
	}
	s.cliques = cliques
	m := len(root)
	s.layoutCliques(m)

	s.inCore = slices.Grow(s.inCore[:0], m)[:m]
	for v := range s.inCore {
		s.inCore[v] = true
	}
	if k > 0 && s.peelToCore(m) {
		kept := s.cliques[:0]
		for ci, cl := range s.cliques {
			if !s.clDead[ci] {
				kept = append(kept, cl)
			}
		}
		s.cliques = kept
		s.layoutCliques(m)
	}
	s.core = s.core[:0]
	s.coreEdge = s.coreEdge[:0]
	for v, in := range s.inCore {
		if !in {
			continue
		}
		s.core = append(s.core, int32(v))
		t := root[v]
		for _, e := range inc.triEdge[3*t : 3*t+3] {
			s.coreEdge = append(s.coreEdge, laneOf[e])
		}
	}
}

// LaneIndex returns dst, grown to g's incidence edge-id space (the CSR
// positions of NewTriIncidence), with entry g.AdjIndex(e.U, e.V) set to i
// for every edge e = union[i]: the root edge id → union lane table that
// WorldPeelSeed.Seed and NewWorldCheckUnion read. union must be a canonical edge list of g. The
// entries of edges outside union keep whatever they held.
func LaneIndex(dst []int32, g *graph.Graph, union []graph.Edge) []int32 {
	dst = slices.Grow(dst[:0], 2*g.NumEdges())[:2*g.NumEdges()]
	for i, e := range union {
		id := g.AdjIndex(e.U, e.V)
		if id < 0 {
			panic("decomp: union edge missing from graph")
		}
		dst[id] = int32(i)
	}
	return dst
}

// layoutCliques lays the per-triangle clique lists out CSR-style over m
// view triangles, each list in clique order. As in the incidence build,
// counts go to clOff[t+2], so the fill's post-increments leave clOff[t+1]
// at triangle t's end.
func (s *WorldPeelSeed) layoutCliques(m int) {
	off := resizeCleared32(s.clOff, m+2)
	for _, cl := range s.cliques {
		for _, v := range cl {
			off[v+2]++
		}
	}
	for v := 2; v < m+2; v++ {
		off[v] += off[v-1]
	}
	s.clIDs = slices.Grow(s.clIDs[:0], int(off[m+1]))[:off[m+1]]
	for ci, cl := range s.cliques {
		for _, v := range cl {
			s.clIDs[off[v+1]] = int32(ci)
			off[v+1]++
		}
	}
	s.clOff = off[:m+1]
}

// peelToCore runs the k-core deletion fixpoint over the laid-out cliques:
// a triangle with fewer than k live cliques leaves inCore, and each of its
// cliques dies once — when its first member leaves — taking one unit of
// support from each member still in. clDead then marks the dead cliques.
// It reports whether any triangle left.
func (s *WorldPeelSeed) peelToCore(m int) bool {
	k := int32(s.k)
	sup := slices.Grow(s.sup[:0], m)[:m]
	s.clDead = slices.Grow(s.clDead[:0], len(s.cliques))[:len(s.cliques)]
	clear(s.clDead)
	work := s.work[:0]
	for v := range sup {
		if sup[v] = s.clOff[v+1] - s.clOff[v]; sup[v] < k {
			s.inCore[v] = false
			work = append(work, int32(v))
		}
	}
	left := len(work) > 0
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ci := range s.clIDs[s.clOff[t]:s.clOff[t+1]] {
			if s.clDead[ci] {
				continue
			}
			s.clDead[ci] = true
			for _, o := range s.cliques[ci] {
				if !s.inCore[o] {
					continue
				}
				if sup[o]--; sup[o] < k {
					s.inCore[o] = false
					work = append(work, o)
				}
			}
		}
	}
	s.sup, s.work = sup, work
	return left
}

// resizeCleared32 returns s with length n and every element zero, reusing
// the backing array when it is large enough.
func resizeCleared32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ScoreLanes scores one block of up to 64 shared union worlds for the
// candidate bound to seed. lanes holds the block's lane words indexed by
// union edge id — bit j of lanes[e] is set iff union edge e exists in the
// block's world j (see mc.Lanes) — and valid marks the lanes that hold a
// world. For every core triangle t it adds to loss[t]
// (indexed by view id) the number of valid worlds in which t does not
// belong to a deterministic k-nucleus of the world; triangles outside the
// core qualify in no world and are not counted.
//
// Each core triangle starts alive in the lanes where its three edges are
// present. For k ≥ 1 a deduplicated worklist then runs the k-core fixpoint
// on all lanes at once: a clique's word is the AND of its four triangles'
// words, a triangle keeps the lanes in which at least k of its clique words
// are set (atLeastK), and a triangle that loses lanes re-queues the other
// members of every clique that was alive in a lost lane — the only
// triangles whose counts the loss changed. A triangle of a world's k-core
// keeps at least k cliques inside that core, whose triangles it never
// clears, so it never loses the world's lane; and once the worklist drains,
// every triangle alive in a lane has k cliques alive in it. Each lane
// therefore stops at the world's k-core, the greatest such set: exactly the
// set a per-world deletion cascade from the world's missing edges leaves,
// so the loss counts equal the cascade's. For k = 1
// a triangle loses only lanes in which none of its cliques is alive, so
// nothing is re-queued and one pass suffices; for k = 0 the edge test is
// the whole predicate.
func (ws *WorldMembershipScorer) ScoreLanes(seed *WorldPeelSeed, lanes []uint64, valid uint64, loss []int32) {
	m := seed.Len()
	ws.Reserve(m)
	alive := ws.alive[:m]
	for i, t := range seed.core {
		e := seed.coreEdge[3*i : 3*i+3 : 3*i+3]
		alive[t] = valid & lanes[e[0]] & lanes[e[1]] & lanes[e[2]]
	}
	if seed.k > 0 {
		ws.fixpoint(seed, alive)
	}
	for _, t := range seed.core {
		loss[t] += int32(bits.OnesCount64(valid &^ alive[t]))
	}
}

// Reserve grows the scorer's scratch to fit candidates of up to m view
// triangles, so that scoring one allocates nothing.
func (ws *WorldMembershipScorer) Reserve(m int) {
	if cap(ws.alive) < m {
		ws.alive = make([]uint64, m)
		ws.queued = make([]bool, m)
	}
	// The fixpoint's worklist holds each triangle at most once.
	ws.work = slices.Grow(ws.work[:0], m)
}

// fixpoint drives alive to the per-lane k-core (see ScoreLanes). The
// worklist starts as the whole core, and queued keeps every triangle on it
// at most once.
func (ws *WorldMembershipScorer) fixpoint(seed *WorldPeelSeed, alive []uint64) {
	queued := ws.queued[:seed.Len()]
	work := append(ws.work[:0], seed.core...)
	for _, t := range seed.core {
		queued[t] = true
	}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		queued[t] = false
		live := alive[t]
		if live == 0 {
			continue
		}
		cls := seed.clIDs[seed.clOff[t]:seed.clOff[t+1]]
		keep := atLeastK(seed.cliques, cls, alive, live, seed.k)
		if keep == live {
			continue
		}
		// Re-queue the other members of every clique that was alive in a
		// lane t loses; alive[t] still holds live here, so a clique's word
		// masked by lost is exactly those lanes.
		lost := live &^ keep
		for _, ci := range cls {
			cl := &seed.cliques[ci]
			if lost&alive[cl[0]]&alive[cl[1]]&alive[cl[2]]&alive[cl[3]] == 0 {
				continue
			}
			for _, o := range cl {
				if o != t && !queued[o] {
					queued[o] = true
					work = append(work, o)
				}
			}
		}
		alive[t] = keep
	}
	ws.work = work
}

// atLeastK returns the lanes of live in which at least k ≥ 1 of the cliques
// cls are alive, a clique's word being the AND of its four triangles' alive
// words (live, the scored triangle's own word, bounds every one of them).
// The scan stops as soon as every live lane has reached k.
func atLeastK(cliques [][4]int32, cls []int32, alive []uint64, live uint64, k int) uint64 {
	if len(cls) < k {
		return 0
	}
	c := laneCount{nb: bits.Len(uint(k))}
	var reached uint64
	for i, ci := range cls {
		cl := &cliques[ci]
		c.add(alive[cl[0]] & alive[cl[1]] & alive[cl[2]] & alive[cl[3]])
		if i+1 < k {
			continue // no lane can have reached k yet
		}
		if reached = c.atLeast(k); reached == live {
			break
		}
	}
	return reached
}

// laneCount counts, for each of the 64 lanes, how many of the words added
// to it have the lane set. The counts are bit-sliced: slice[b] holds bit b
// of every lane's count, and a carry out of the top slice marks the lane as
// past any k < 2^nb for good. Set nb to bits.Len(k) for the k that atLeast
// will be asked about (k < 2^31).
type laneCount struct {
	slice [31]uint64
	nb    int
	over  uint64
}

// add counts the lanes set in w.
func (c *laneCount) add(w uint64) {
	for b := 0; b < c.nb && w != 0; b++ {
		carry := c.slice[b] & w
		c.slice[b] ^= w
		w = carry
	}
	c.over |= w
}

// atLeast returns the lanes whose count is at least k.
func (c *laneCount) atLeast(k int) uint64 { return c.over | countAtLeast(c.slice[:c.nb], k) }

// countAtLeast compares the bit-sliced lane counts cnt (cnt[b]: bit b of
// every lane's count) with the constant k, most significant slice first,
// and returns the lanes whose count is at least k.
func countAtLeast(cnt []uint64, k int) uint64 {
	var gt uint64
	eq := ^uint64(0)
	for b := len(cnt) - 1; b >= 0; b-- {
		if k>>uint(b)&1 == 1 {
			eq &= cnt[b]
		} else {
			gt |= eq & cnt[b]
			eq &^= cnt[b]
		}
	}
	return gt | eq
}
