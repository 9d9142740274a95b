// Package decomp implements the deterministic density decompositions the
// paper builds on: k-core (Batagelj–Zaveršnik), k-truss (edge peeling), and
// (3,4)-nucleus decomposition (Sarıyüce et al.), plus the word-parallel
// kernels that evaluate the global and weakly-global world predicates on
// Monte-Carlo samples, 64 worlds per machine word. The per-world reference
// forms of those predicates live in internal/exact.
//
// Throughout this module, supports follow the paper's convention: the
// s-support of an r-clique is the number of s-cliques containing it, and a
// k-X requires support ≥ k (so the classical "k-truss" of the literature is
// the (k−2)-truss here).
package decomp

import (
	"slices"

	"probnucleus/internal/graph"
	"probnucleus/internal/par"
)

// TriIncidence is the edge→triangle incidence of a triangle index: every
// triangle's three edge ids and, for every edge, the triangles containing it
// ordered by their third vertex. It lets a clique peel resolve the other
// three triangles of a 4-clique {A,B,C,z} — (A,B,z), (A,C,z) and (B,C,z) —
// by walking the lists of edges AB, AC and BC forward in step with the
// ascending completion list of (A,B,C) (see siblings), with no lookup by
// vertex triple. It costs 36 B per triangle: three 4-byte edge ids plus one
// 8-byte entry on each of its three edges. An incidence is read-only once
// built, so one serves any number of concurrent peels over its index.
type TriIncidence struct {
	// triEdge[3t], triEdge[3t+1], triEdge[3t+2]: the ids of triangle t's
	// edges AB, AC and BC.
	triEdge []int32
	// ent[off[e]:off[e+1]]: the triangles containing edge e, each packed as
	// third vertex << 32 | triangle id, ascending — so by third vertex.
	off []int32
	ent []uint64
}

// NewTriIncidence builds the incidence of ti, every triangle edge of which
// must be an edge of g (ti indexes g, or a subgraph of it). Edge ids are
// g's CSR positions of the edges' canonical (u < v) direction. The lists
// are filled by a counting sort on edge id — counts go to off[e+2], so
// after the prefix sum off[e+1] is edge e's start and the fill's
// post-increments leave it at e's end, the final CSR offset, with no cursor
// array — and each list is then sorted by third vertex.
func NewTriIncidence(ti *graph.TriangleIndex, g *graph.Graph) *TriIncidence {
	ne := 2 * g.NumEdges()
	edgeID := func(u, v int32) int32 {
		i := g.AdjIndex(u, v)
		if i < 0 {
			panic("decomp: triangle edge missing from graph")
		}
		return int32(i)
	}
	n := ti.Len()
	triEdge, ent := make([]int32, 3*n), make([]uint64, 3*n)
	off := make([]int32, ne+2)
	for t, tri := range ti.Tris {
		e := triEdge[3*t : 3*t+3]
		e[0], e[1], e[2] = edgeID(tri.A, tri.B), edgeID(tri.A, tri.C), edgeID(tri.B, tri.C)
		off[e[0]+2]++
		off[e[1]+2]++
		off[e[2]+2]++
	}
	for e := 2; e < ne+2; e++ {
		off[e] += off[e-1]
	}
	for t, tri := range ti.Tris {
		for j, third := range [3]int32{tri.C, tri.B, tri.A} {
			e := triEdge[3*t+j]
			ent[off[e+1]] = uint64(uint32(third))<<32 | uint64(t)
			off[e+1]++
		}
	}
	off = off[:ne+1]
	for e := 0; e < ne; e++ {
		if lo, hi := off[e], off[e+1]; hi-lo > 1 {
			slices.Sort(ent[lo:hi])
		}
	}
	return &TriIncidence{triEdge: triEdge, off: off, ent: ent}
}

// edgeAvoiding returns the id of the edge of triangle t (an id of ti, the
// index inc was built for) that avoids x, one of t's vertices: BC for A, AC
// for B and AB for C.
func (inc *TriIncidence) edgeAvoiding(ti *graph.TriangleIndex, t, x int32) int32 {
	tri := ti.Tris[t]
	switch x {
	case tri.A:
		return inc.triEdge[3*t+2]
	case tri.B:
		return inc.triEdge[3*t+1]
	}
	return inc.triEdge[3*t]
}

// siblings returns a cursor over the incidence lists of triangle t's three
// edges, positioned before their first entries.
func (inc *TriIncidence) siblings(t int32) siblings {
	e := inc.triEdge[3*t : 3*t+3]
	return siblings{inc.edge(e[0]), inc.edge(e[1]), inc.edge(e[2])}
}

// edge returns the incidence list of edge e.
func (inc *TriIncidence) edge(e int32) []uint64 { return inc.ent[inc.off[e]:inc.off[e+1]] }

// siblings is the lockstep walk of one triangle (A,B,C): the unread tails of
// the incidence lists of its edges AB, AC and BC.
type siblings struct{ ab, ac, bc []uint64 }

// next returns the ids of the other three triangles of the 4-clique
// {A,B,C,z}: (A,B,z), (A,C,z) and (B,C,z), in that order. Successive calls
// must pass strictly increasing completion vertices z, as a walk of the
// triangle's sorted completion list does; each probe gallops forward from
// where the previous one stopped.
func (s *siblings) next(z int32) [3]int32 {
	return [3]int32{seekThird(&s.ab, z), seekThird(&s.ac, z), seekThird(&s.bc, z)}
}

// seekThird advances an incidence-list tail past the entry whose third
// vertex is z and returns that entry's triangle id. The common case, z at
// the head, is answered inline; otherwise it gallops (gallopThird).
func seekThird(list *[]uint64, z int32) int32 {
	if l := *list; len(l) > 0 && l[0]>>32 == uint64(uint32(z)) {
		*list = l[1:]
		return int32(uint32(l[0]))
	}
	return gallopThird(list, z)
}

func gallopThird(list *[]uint64, z int32) int32 {
	l := *list
	i := graph.Gallop(l, uint64(uint32(z))<<32)
	if i == len(l) || l[i]>>32 != uint64(uint32(z)) {
		panic("decomp: 4-clique triangle missing from incidence")
	}
	*list = l[i+1:]
	return int32(uint32(l[i]))
}

// CliqueAdj tracks, for every triangle of a graph, which 4-clique completion
// vertices are still alive during a peeling computation. Removing a triangle
// kills all 4-cliques containing it. CliqueAdj resolves each killed clique's
// three sibling triangles through a TriIncidence walked in step with the
// removed triangle's completions (a gallop over the gap since the previous
// clique, no lookup by vertex triple), and locates the clique's slot in each
// sibling's completion list by an O(log c) binary search.
//
// The per-triangle state is laid out CSR-style: completion slot i of
// triangle t (its completion vertex TI.Comps[t][i]) lives at flat index
// off[t]+i of one shared liveness array — no per-triangle hash maps, no
// per-triangle allocations.
//
// It is shared by the deterministic nucleus decomposition and the
// probabilistic local decomposition in package core.
type CliqueAdj struct {
	TI  *graph.TriangleIndex
	inc *TriIncidence
	// off[t] is the first flat index of triangle t's completion slots;
	// off[Len()] is the total slot count.
	off []int
	// alive[off[t]+i] reports whether the 4-clique
	// TI.Tris[t] ∪ {TI.Comps[t][i]} is still alive.
	alive []bool
	// AliveCount[t] is the number of live completions of triangle t (its
	// current 4-clique support).
	AliveCount []int
	// Dead[t] marks triangle t as processed/removed.
	Dead []bool
}

// NewCliqueAdj builds the adjacency for all triangles of g.
func NewCliqueAdj(g *graph.Graph) *CliqueAdj {
	ti := graph.NewTriangleIndex(g, par.NewPool(1))
	return NewCliqueAdjFromIndex(ti, NewTriIncidence(ti, g))
}

// NewCliqueAdjFromIndex builds the adjacency over an existing triangle index
// and its incidence, which it only reads.
func NewCliqueAdjFromIndex(ti *graph.TriangleIndex, inc *TriIncidence) *CliqueAdj {
	ca := &CliqueAdj{}
	ca.Reset(ti, inc)
	return ca
}

// Reset rebinds ca to an index and its incidence, reusing its slot storage
// from previous rounds. It lets hot loops (per-candidate peeling) run many
// decompositions on one adjacency without reallocating; the zero value of
// CliqueAdj is ready for Reset.
func (ca *CliqueAdj) Reset(ti *graph.TriangleIndex, inc *TriIncidence) {
	n := ti.Len()
	ca.TI, ca.inc = ti, inc
	if cap(ca.off) < n+1 {
		ca.off = make([]int, n+1)
		ca.AliveCount = make([]int, n)
		ca.Dead = make([]bool, n)
	}
	ca.off = ca.off[:n+1]
	ca.AliveCount = ca.AliveCount[:n]
	ca.Dead = ca.Dead[:n]
	ca.off[0] = 0
	for t := 0; t < n; t++ {
		c := len(ti.Comps[t])
		ca.off[t+1] = ca.off[t] + c
		ca.AliveCount[t] = c
		ca.Dead[t] = false
	}
	total := ca.off[n]
	if cap(ca.alive) < total {
		ca.alive = make([]bool, total)
	}
	ca.alive = ca.alive[:total]
	for i := range ca.alive {
		ca.alive[i] = true
	}
}

// Len returns the number of triangles.
func (ca *CliqueAdj) Len() int { return ca.TI.Len() }

// Alive reports whether completion slot i of triangle t is still alive.
func (ca *CliqueAdj) Alive(t int32, i int) bool { return ca.alive[ca.off[t]+i] }

// RemoveCompletion kills the completion entry z of triangle t (the 4-clique
// t ∪ {z}) if it is still alive. It returns z's slot index in TI.Comps[t]
// and whether the completion was alive.
func (ca *CliqueAdj) RemoveCompletion(t int32, z int32) (int, bool) {
	i, ok := slices.BinarySearch(ca.TI.Comps[t], z)
	if !ok {
		return 0, false
	}
	flat := ca.off[t] + i
	if !ca.alive[flat] {
		return i, false
	}
	ca.alive[flat] = false
	ca.AliveCount[t]--
	return i, true
}

// RemoveTriangle marks triangle t as dead and removes every 4-clique that
// contains it, updating the other triangles of each clique. For every
// affected live triangle it calls onUpdate with the triangle's id and the
// slot index (within that triangle's completion list) of the clique that
// died — once per killed clique, in ascending completion order and, within
// a clique, in the order (A,B,z), (A,C,z), (B,C,z) — so a triangle sharing
// several cliques with t is reported several times, each with a distinct
// slot.
func (ca *CliqueAdj) RemoveTriangle(t int32, onUpdate func(other int32, slot int)) {
	if ca.Dead[t] {
		return
	}
	ca.Dead[t] = true
	tri := ca.TI.Tris[t]
	// The vertex of t that each sibling lacks: its completion vertex for the
	// shared clique.
	missing := [3]int32{tri.C, tri.B, tri.A}
	sib := ca.inc.siblings(t)
	base := ca.off[t]
	for i, z := range ca.TI.Comps[t] {
		if !ca.alive[base+i] {
			continue
		}
		ca.alive[base+i] = false
		ca.AliveCount[t]--
		for j, o := range sib.next(z) {
			if ca.Dead[o] {
				// The clique should already have been removed from o when o
				// died; nothing to do.
				continue
			}
			if slot, ok := ca.RemoveCompletion(o, missing[j]); ok && onUpdate != nil {
				onUpdate(o, slot)
			}
		}
	}
}

// batchParallelCutoff is the minimum number of batch triangles for which
// RemoveBatch kills their cliques on the worker pool; below it the pool
// overhead outweighs the work.
const batchParallelCutoff = 16

// BatchRemoval is the working memory of CliqueAdj.RemoveBatch and, after a
// call, its result: the live triangles outside the batch that lost
// 4-cliques and that Keep selects (Len, Tri), each with the slots of the
// cliques it lost (Slots). Its buffers grow to the largest removal it has
// served and are reused by the next. Reset it for the triangle count of
// the adjacency before the first RemoveBatch of a decomposition.
type BatchRemoval struct {
	// Keep, when set, selects the affected triangles a removal reports:
	// the others lose their cliques all the same but are left out of the
	// result. It is called on the calling goroutine only.
	Keep func(t int32) bool
	// stamp[t] == round marks t as a member of the batch being removed.
	stamp []int32
	round int32
	// pairs[p] holds the sibling<<32 | slot pairs emitted for part p of
	// the batch, the first parts of them in use. A buffer per part, not per
	// worker, so what each must hold depends on the batch alone: a repeated
	// decomposition finds every buffer already large enough.
	pairs [][]uint64
	parts int
	// cnt[t] counts and then places t's pairs while grouping; it is zero
	// between removals. skipped lists the triangles Keep left out.
	cnt     []int32
	tris    []int32
	off     []int32
	slots   []int32
	skipped []int32
	// The callbacks of the kill and of a one-triangle removal and their
	// arguments, built once per BatchRemoval so that a removal allocates
	// nothing.
	ca     *CliqueAdj
	batch  []int32
	killFn func(w, p int)
	emitFn func(o int32, slot int)
}

// Reset prepares b for a decomposition over n triangles: no stale batch
// stamp or pair count of an earlier one survives it.
func (b *BatchRemoval) Reset(n int) {
	b.stamp = resizeCleared32(b.stamp, n)
	b.cnt = resizeCleared32(b.cnt, n)
	b.round = 0
	b.tris = b.tris[:0]
}

// Len returns the number of affected triangles of the last removal.
func (b *BatchRemoval) Len() int { return len(b.tris) }

// Tri returns the i-th affected triangle of the last removal.
func (b *BatchRemoval) Tri(i int) int32 { return b.tris[i] }

// Slots returns the completion slots of Tri(i) whose cliques the last
// removal killed.
func (b *BatchRemoval) Slots(i int) []int32 { return b.slots[b.off[i]:b.off[i+1]] }

// RemoveBatch marks every triangle of batch dead and kills every 4-clique
// that contains one of them in all four of its triangles, as RemoveTriangle
// on each would, and leaves in b the live triangles outside the batch that
// lost cliques and that b.Keep selects, with their slots, for the caller to
// update whatever it keeps per slot. Batch members must be distinct and
// alive.
//
// The kill runs in parallel over contiguous parts of the batch, each
// writing only its batch triangles' state and its own pair buffer: each
// batch triangle clears its own slots, and a killed clique is owned by its
// lowest-id batch triangle, which alone emits a (triangle, slot) pair for
// each of the clique's siblings outside the batch. A counting scatter then
// kills each pair's slot and groups the kept pairs by triangle. The affected
// triangles come in the order the pairs first name them, and each one's
// slots in the order of its pairs: the batch's order, then each batch
// triangle's completion order. That order depends on batch's order but
// not on the worker count, since the parts are contiguous runs of the
// batch, scattered in turn. A batch of one triangle is removed by
// RemoveTriangle, its affected triangles ascending. A pool cancelled
// mid-removal leaves a partial removal; the caller must discard the
// decomposition.
func (ca *CliqueAdj) RemoveBatch(pool *par.Pool, batch []int32, b *BatchRemoval) {
	if b.killFn == nil {
		b.killFn = func(_, p int) {
			lo, hi := p*len(b.batch)/b.parts, (p+1)*len(b.batch)/b.parts
			out := b.pairs[p]
			for _, t := range b.batch[lo:hi] {
				out = b.ca.killOwned(t, b, out)
			}
			b.pairs[p] = out
		}
		b.emitFn = func(o int32, slot int) {
			if b.Keep == nil || b.Keep(o) {
				b.pairs[0] = append(b.pairs[0], uint64(o)<<32|uint64(slot))
			}
		}
	}
	if len(batch) == 1 {
		ca.removeOne(batch[0], b)
		return
	}
	b.round++
	for _, t := range batch {
		b.stamp[t] = b.round
	}
	b.ca, b.batch = ca, batch
	workers := pool.Workers()
	b.parts = 1
	if workers > 1 && len(batch) >= batchParallelCutoff {
		// Several parts per worker balance the uneven per-triangle work.
		b.parts = min(len(batch), 8*workers)
	}
	for len(b.pairs) < b.parts {
		b.pairs = append(b.pairs, nil)
	}
	for p := range b.pairs[:b.parts] {
		b.pairs[p] = b.pairs[p][:0]
	}
	if b.parts > 1 {
		pool.ForWorker(b.parts, b.killFn)
	} else {
		b.killFn(0, 0)
	}
	ca.group(b)
	b.ca, b.batch = nil, nil
}

// removeOne removes a batch of the one triangle t, as every batch of an AP
// peel is. t shares at most one clique with any other triangle, so each
// affected triangle loses one slot: RemoveTriangle kills the cliques in all
// four triangles at once, and sorting the kept pairs it reports lists
// their triangles ascending.
func (ca *CliqueAdj) removeOne(t int32, b *BatchRemoval) {
	if len(b.pairs) == 0 {
		b.pairs = append(b.pairs, nil)
	}
	b.pairs[0] = b.pairs[0][:0]
	ca.RemoveTriangle(t, b.emitFn)
	ps := b.pairs[0]
	slices.Sort(ps)
	tris, off, slots := b.tris[:0], b.off[:0], b.slots[:0]
	for i, p := range ps {
		tris = append(tris, int32(p>>32))
		off = append(off, int32(i))
		slots = append(slots, int32(uint32(p)))
	}
	b.tris, b.off, b.slots = tris, append(off, int32(len(ps))), slots
}

// killOwned marks batch triangle t dead, clears its live slots, and
// appends to out a sibling<<32 | slot pair for every sibling outside the
// batch of each killed clique t owns: a clique is owned by its lowest-id
// batch triangle, so each batch triangle of a clique walks it but only one
// reports it. It writes no other triangle's state — the affected
// triangles' slots die when the pairs are grouped — so the batch is killed
// in parallel. A live clique's four triangles are all alive (a dead
// triangle's cliques died with it), so every sibling outside the batch is
// live.
func (ca *CliqueAdj) killOwned(t int32, b *BatchRemoval, out []uint64) []uint64 {
	ca.Dead[t] = true
	tri := ca.TI.Tris[t]
	missing := [3]int32{tri.C, tri.B, tri.A}
	sib := ca.inc.siblings(t)
	base := ca.off[t]
	for i, z := range ca.TI.Comps[t] {
		if !ca.alive[base+i] {
			continue
		}
		ca.alive[base+i] = false
		os := sib.next(z)
		if os[0] < t && b.stamp[os[0]] == b.round ||
			os[1] < t && b.stamp[os[1]] == b.round ||
			os[2] < t && b.stamp[os[2]] == b.round {
			continue // a lower-id batch triangle owns the clique
		}
		for j, o := range os {
			if b.stamp[o] == b.round {
				continue
			}
			slot, _ := slices.BinarySearch(ca.TI.Comps[o], missing[j])
			out = append(out, uint64(o)<<32|uint64(slot))
		}
	}
	ca.AliveCount[t] = 0
	return out
}

// group lists the distinct triangles of the emitted pairs that Keep
// selects, in the order the pairs first name them, scatters each of their
// pairs' slots into the triangle's range of slots (a counting sort by
// triangle over the pairs), kills every pair's slot, and leaves cnt
// zeroed. Its cost follows the pairs, not the triangle count.
func (ca *CliqueAdj) group(b *BatchRemoval) {
	// cnt[o] counts a kept triangle's pairs and is -1 for one Keep left out.
	tris, skipped := b.tris[:0], b.skipped[:0]
	for _, ps := range b.pairs[:b.parts] {
		for _, p := range ps {
			o := int32(p >> 32)
			switch c := b.cnt[o]; {
			case c > 0:
				b.cnt[o]++
			case c < 0:
			case b.Keep == nil || b.Keep(o):
				tris = append(tris, o)
				b.cnt[o] = 1
			default:
				skipped = append(skipped, o)
				b.cnt[o] = -1
			}
		}
	}
	if cap(b.off) < len(tris)+1 {
		b.off = make([]int32, len(tris)+1)
	}
	b.off = b.off[:len(tris)+1]
	total := int32(0)
	for i, o := range tris {
		b.off[i] = total
		total += b.cnt[o]
		b.cnt[o] = b.off[i] // now o's fill cursor
	}
	b.off[len(tris)] = total
	if cap(b.slots) < int(total) {
		b.slots = make([]int32, total)
	}
	b.slots = b.slots[:total]
	for _, ps := range b.pairs[:b.parts] {
		for _, p := range ps {
			o, s := int32(p>>32), int32(uint32(p))
			ca.alive[ca.off[o]+int(s)] = false
			ca.AliveCount[o]--
			if c := b.cnt[o]; c >= 0 {
				b.slots[c] = s
				b.cnt[o] = c + 1
			}
		}
	}
	for _, o := range tris {
		b.cnt[o] = 0
	}
	for _, o := range skipped {
		b.cnt[o] = 0
	}
	b.tris, b.skipped = tris, skipped
}
