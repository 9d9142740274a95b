package decomp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/graph"
	"probnucleus/internal/mc"
	"probnucleus/internal/par"
	"probnucleus/internal/uf"
)

// maskHas reports whether edge id e is set in a world mask.
func maskHas(mask []uint64, e int32) bool {
	return mask[e>>6]&(1<<(uint(e)&63)) != 0
}

// fillAlive computes one world's union-triangle aliveness row from its world
// mask: bit t of row is set iff union triangle t's three edges are all
// present. row must hold ⌈u.Len()/64⌉ words; it is overwritten.
func fillAlive(u *WorldCheckUnion, row, mask []uint64) {
	clear(row)
	for t, b := 0, 0; b < len(u.triEdge); t, b = t+1, b+3 {
		if maskHas(mask, u.triEdge[b]) && maskHas(mask, u.triEdge[b+1]) && maskHas(mask, u.triEdge[b+2]) {
			row[t>>6] |= 1 << (uint(t) & 63)
		}
	}
}

// refMaskChecker is the per-world form of the global world predicate that
// WorldChecker.ScanLanes replaced, kept as its reference: one world at a
// time, from the world's mask and its union-triangle aliveness row (see
// fillAlive), a BFS for vertex connectivity, a support count per triangle
// and a union-find over the alive cliques.
type refMaskChecker struct {
	u       uf.UF
	visited []int32
	stamp   int32
	queue   []int32
	out     []int32
}

// qualifying evaluates the Definition 4 predicate on one union world:
// connectivity over the candidate's vertices, support ≥ k for every
// surviving triangle, pairwise 4-clique connectivity. A triangle's survival
// is one aliveness bit; a 4-clique's is three more, since the clique's four
// triangles span its six edges. When the predicate holds it returns the
// candidate view ids of the world's triangles; the slice aliases the
// checker's scratch.
func (rc *refMaskChecker) qualifying(seed *WorldCheckSeed, mask, alive []uint64) ([]int32, bool) {
	if !rc.connected(seed, mask) {
		return nil, false
	}
	out := rc.out[:0]
	for t, uid := range seed.triUID {
		if maskHas(alive, uid) {
			out = append(out, int32(t))
		}
	}
	rc.out = out
	if seed.k == 0 {
		return out, true
	}
	if len(out) == 0 {
		return nil, false
	}
	cliqueAlive := func(s int32) bool {
		o := seed.compOther[3*s : 3*s+3]
		return maskHas(alive, seed.triUID[o[0]]) && maskHas(alive, seed.triUID[o[1]]) && maskHas(alive, seed.triUID[o[2]])
	}
	for _, t := range out {
		cnt := 0
		for s := seed.compOff[t]; s < seed.compOff[t+1]; s++ {
			if cliqueAlive(s) {
				cnt++
			}
		}
		if cnt < seed.k {
			return nil, false
		}
	}
	rc.u.Reset(seed.Len())
	for _, t := range out {
		for s := seed.compOff[t]; s < seed.compOff[t+1]; s++ {
			if cliqueAlive(s) {
				for _, o := range seed.compOther[3*s : 3*s+3] {
					rc.u.Union(t, o)
				}
			}
		}
	}
	root := rc.u.Find(out[0])
	for _, t := range out[1:] {
		if rc.u.Find(t) != root {
			return nil, false
		}
	}
	return out, true
}

// connected is a BFS from candidate-local vertex 0 over the seed's
// adjacency, following an edge iff its union bit is set in the world mask,
// until every candidate vertex is reached.
func (rc *refMaskChecker) connected(seed *WorldCheckSeed, mask []uint64) bool {
	nv := len(seed.verts)
	if nv <= 1 {
		return true
	}
	if len(rc.visited) < nv {
		rc.visited = make([]int32, nv)
		rc.stamp = 0
	}
	rc.stamp++
	stamp := rc.stamp
	queue := append(rc.queue[:0], 0)
	rc.visited[0] = stamp
	reached := 1
	for len(queue) > 0 && reached < nv {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for i := seed.adjOff[v]; i < seed.adjOff[v+1]; i++ {
			w := seed.adjVert[i]
			if rc.visited[w] != stamp && maskHas(mask, seed.adjBit[i]) {
				rc.visited[w] = stamp
				reached++
				queue = append(queue, w)
			}
		}
	}
	rc.queue = queue
	return reached == nv
}

// scanCandidate is one candidate of the lane differential: the union
// triangles spanning it, named for failure messages.
type scanCandidate struct {
	name string
	tris []int32
}

// scanCandidates returns, for level k of g, the candidates the lane
// differential scans, as ids of the union graph's own index (which are its
// union ids too): the largest, a middle and
// the smallest deterministic nucleus of the highest level ≤ k that has any
// (g-NuDecomp candidates are k-nuclei's 4-clique closures, so this is their
// shape), plus a random ~70% of the largest one's triangles, which need be
// neither connected nor a nucleus. The union they are drawn over is every
// nucleus's edges at that level.
func scanCandidates(rng *rand.Rand, g *graph.Graph, root *graph.TriangleIndex, nu []int, k int) ([]graph.Edge, *WorldCheckUnion, []scanCandidate) {
	var cands []Nucleus
	for lvl := k; lvl >= 0 && len(cands) == 0; lvl-- {
		cands = KNuclei(root, NewTriIncidence(root, g), nu, lvl)
	}
	if len(cands) == 0 {
		return nil, nil, nil
	}
	var union []graph.Edge
	for _, c := range cands {
		union = append(union, c.Edges...)
	}
	slices.SortFunc(union, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U - b.U)
		}
		return int(a.V - b.V)
	})
	union = slices.Compact(union)
	uti, wu := unionIndex(g.NumVertices(), union)
	uids := func(c Nucleus) []int32 {
		var ids []int32
		for _, pid := range c.TriIDs {
			id, ok := uti.ID(root.Tris[pid])
			if !ok {
				panic("nucleus triangle missing from union index")
			}
			ids = append(ids, id)
		}
		return ids
	}
	sort.Slice(cands, func(i, j int) bool { return len(cands[i].TriIDs) > len(cands[j].TriIDs) })
	var out []scanCandidate
	for _, ci := range slices.Compact([]int{0, len(cands) / 2, len(cands) - 1}) {
		out = append(out, scanCandidate{fmt.Sprintf("nucleus %d", ci), uids(cands[ci])})
	}
	var sub []int32
	for _, id := range uids(cands[0]) {
		if rng.Float64() < 0.7 {
			sub = append(sub, id)
		}
	}
	if len(sub) > 0 {
		out = append(out, scanCandidate{"subset of nucleus 0", sub})
	}
	return union, wu, out
}

// TestScanLanesMatchesReference is the global lane kernel's differential
// test: over krogan and dblp at small scales, K5, K8 and dense random
// graphs, and k = 0..4, every candidate (see scanCandidates) scanned
// against worlds drawn over the union of all candidates must get, for every
// view triangle, exactly the qualifying-world count the per-world reference
// predicate gives — for world counts n that end in partial 64-lane blocks,
// windows that are not multiples of 64, and 1, 2 and 8 workers scanning
// blocks into per-worker counts merged by integer sum, which any split of
// a candidate's blocks must match. The lanes past a block's valid worlds are filled with ones
// (every edge present) before the scan, so a kernel that read them as
// worlds would over-count. A window of at most 64 worlds is one block,
// which one worker scans whatever the pool size, so those windows run on
// one worker only.
func TestScanLanesMatchesReference(t *testing.T) {
	ns := []int{1, 63, 64, 65, 100, 130}
	windows := []int{1, 37, 64, 0} // 0: the whole bank as one window
	maxN := slices.Max(ns)
	pools := map[int]*par.Pool{}
	for _, w := range []int{1, 2, 8} {
		pools[w] = par.NewPool(w)
		defer pools[w].Close()
	}
	graphs := map[string]*graph.Graph{
		"krogan@0.04": dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))).G,
		"dblp@0.025":  dataset.Generate(dataset.MustLoad("dblp", dataset.Scale(0.025))).G,
		"K5":          completeGraph(5),
		"K8":          completeGraph(8),
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 3; i++ {
		graphs[fmt.Sprintf("dense%d", i)] = randomGraph(rng, 14, 0.85)
	}
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	var (
		seed    WorldCheckSeed
		ref     refMaskChecker
		lanes   mc.Lanes
		checker = make([]WorldChecker, 8)
		counts  = make([][]int32, 8)
	)
	checked := 0
	qualified := make([]int, 5) // per k: reference qualifying credits seen
	for _, name := range names {
		g := graphs[name]
		root := newIndex(g)
		nu := refNucleusPeel(root)
		for k := 0; k <= 4; k++ {
			union, wu, cands := scanCandidates(rng, g, root, nu, k)
			if len(cands) == 0 {
				continue
			}
			words := (len(union) + 63) / 64
			// One bank of maxN worlds per (graph, k); every n scans its
			// prefix. Keep probabilities are mixed per world so that some
			// worlds qualify and others fail each part of the predicate.
			bank := make([]uint64, maxN*words)
			for w := 0; w < maxN; w++ {
				keep := 0.7 + 0.3*rng.Float64()
				for e := range union {
					if rng.Float64() < keep {
						bank[w*words+e/64] |= 1 << (uint(e) % 64)
					}
				}
			}
			row := make([]uint64, (wu.Len()+63)/64)
			for _, cand := range cands {
				seed.Seed(wu, cand.tris, k)
				m := seed.Len()
				// Reference: per-world qualifying sets, accumulated per prefix.
				perWorld := make([][]int32, maxN)
				for w := range perWorld {
					mask := bank[w*words : (w+1)*words]
					fillAlive(wu, row, mask)
					if ids, ok := ref.qualifying(&seed, mask, row); ok {
						perWorld[w] = slices.Clone(ids)
						qualified[k] += len(ids)
					}
				}
				for _, n := range ns {
					want := make([]int32, m)
					for w := 0; w < n; w++ {
						for _, tr := range perWorld[w] {
							want[tr]++
						}
					}
					for _, window := range windows {
						if window == 0 {
							window = n
						}
						for _, workers := range []int{1, 2, 8} {
							if workers > 1 && window <= 64 {
								continue
							}
							got := make([]int32, m)
							for lo := 0; lo < n; lo += window {
								hi := min(lo+window, n)
								lanes.Transpose(bank[lo*words:hi*words], hi-lo, words)
								for w := range counts[:workers] {
									counts[w] = slices.Grow(counts[w][:0], m)[:m]
									clear(counts[w])
								}
								blocks := make([][]uint64, lanes.Blocks())
								for b := range blocks {
									blocks[b] = slices.Clone(lanes.Block(b))
									for e := range blocks[b] {
										blocks[b][e] |= ^lanes.Valid(b)
									}
								}
								pools[workers].ForWorker(len(blocks), func(worker, b int) {
									checker[worker].ScanLanes(&seed, blocks[b], lanes.Valid(b), counts[worker])
								})
								for _, c := range counts[:workers] {
									for tr, x := range c {
										got[tr] += x
									}
								}
							}
							if !slices.Equal(got, want) {
								where := fmt.Sprintf("%s k=%d %s n=%d window=%d workers=%d", name, k, cand.name, n, window, workers)
								for tr := range got {
									if got[tr] != want[tr] {
										t.Fatalf("%s: triangle %d qualifies in %d worlds, reference %d", where, tr, got[tr], want[tr])
									}
								}
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked < 300 {
		t.Fatalf("only %d (candidate, n, window, workers) cases checked", checked)
	}
	for k, q := range qualified {
		if q == 0 {
			t.Errorf("k=%d: no reference world qualified; the differential is vacuous there", k)
		}
	}
	t.Logf("%d cases checked; reference credits per k: %v", checked, qualified)
}
