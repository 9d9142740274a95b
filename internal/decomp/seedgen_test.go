package decomp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probnucleus/internal/dataset"
	"probnucleus/internal/graph"
)

// wrapStarts are the generation counters the wrap tests restart a used seed
// at: just below the int32 wrap, so the run crosses it, and -1, where a
// counter left to wrap unchecked would sit after 2^32-1 Seed calls, one
// step before the never-set zero stamps would all read as current.
var wrapStarts = []int32{math.MaxInt32 - 2, -1}

// sameState compares two seed states by their printed form, which reads a
// nil and an empty slice alike: a fresh seed leaves empty fields nil, a
// reused one empty.
func sameState(a, b any) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// checkSeedState is everything a WorldCheckSeed binding produces, copied.
func checkSeedState(s *WorldCheckSeed) [][]int32 {
	out := make([][]int32, 0, 8)
	for _, f := range [][]int32{s.triUID, s.extra, s.compOff, s.compOther, s.verts, s.adjOff, s.adjVert, s.adjBit} {
		out = append(out, slices.Clone(f))
	}
	return out
}

// TestWorldCheckSeedGenerationWrap: a seed kept across many candidates, as
// an engine shard keeps one per worker for its whole life, must bind every
// candidate exactly as a fresh seed does when its generation counter wraps.
// The seed first binds the first candidate, leaving stamps of a small
// generation behind, then restarts its counter at each of wrapStarts and
// binds every candidate three times; the others' never-set stamps are zero.
func TestWorldCheckSeedGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))).G
	root := newIndex(g)
	nu := refNucleusPeel(root)
	checked := 0
	for k := 1; k <= 2; k++ {
		_, wu, cands := scanCandidates(rng, g, root, nu, k)
		if len(cands) < 2 {
			t.Fatalf("k=%d: %d candidates, want several", k, len(cands))
		}
		want := make([][][]int32, len(cands))
		for i, c := range cands {
			var fresh WorldCheckSeed
			fresh.Seed(wu, c.tris, k)
			want[i] = checkSeedState(&fresh)
		}
		for _, start := range wrapStarts {
			var s WorldCheckSeed
			s.Seed(wu, cands[0].tris, k)
			s.gen = start
			for pass := 0; pass < 3; pass++ {
				for i, c := range cands {
					s.Seed(wu, c.tris, k)
					if got := checkSeedState(&s); !sameState(got, want[i]) {
						t.Fatalf("k=%d start %d pass %d %s (gen %d): seed differs from a fresh one:\n got %v\nwant %v",
							k, start, pass, c.name, s.gen, got, want[i])
					}
					checked++
				}
			}
			if s.gen <= 0 {
				t.Errorf("k=%d start %d: generation %d after the run, want positive", k, start, s.gen)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d bindings checked", checked)
	}
}

// peelSeedState is everything a WorldPeelSeed binding produces, copied.
func peelSeedState(s *WorldPeelSeed) []any {
	return []any{slices.Clone(s.root), slices.Clone(s.core), slices.Clone(s.coreEdge),
		slices.Clone(s.cliques), slices.Clone(s.clOff), slices.Clone(s.clIDs)}
}

// TestWorldPeelSeedGenerationWrap is TestWorldCheckSeedGenerationWrap for
// the w-NuDecomp seed, over the nuclei of krogan at k = 0..2.
func TestWorldPeelSeedGenerationWrap(t *testing.T) {
	g := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))).G
	root := newIndex(g)
	inc := NewTriIncidence(root, g)
	nu := refNucleusPeel(root)
	checked := 0
	for k := 0; k <= 2; k++ {
		cands := KNuclei(root, inc, nu, k)
		if len(cands) < 2 {
			continue
		}
		var union []graph.Edge
		for _, c := range cands {
			union = append(union, c.Edges...)
		}
		slices.SortFunc(union, compareEdges)
		union = slices.Compact(union)
		laneOf := LaneIndex(nil, g, union)
		want := make([][]any, len(cands))
		for i, c := range cands {
			var fresh WorldPeelSeed
			fresh.Seed(root, inc, c.TriIDs, laneOf, k)
			want[i] = peelSeedState(&fresh)
		}
		for _, start := range wrapStarts {
			var s WorldPeelSeed
			s.Seed(root, inc, cands[0].TriIDs, laneOf, k)
			s.gen = start
			for pass := 0; pass < 3; pass++ {
				for i, c := range cands {
					s.Seed(root, inc, c.TriIDs, laneOf, k)
					if got := peelSeedState(&s); !sameState(got, want[i]) {
						t.Fatalf("k=%d start %d pass %d nucleus %d (gen %d): seed differs from a fresh one:\n got %v\nwant %v",
							k, start, pass, i, s.gen, got, want[i])
					}
					checked++
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d bindings checked", checked)
	}
}

// TestWorldPeelSeedClone: a clone of a seed's binding, taken before the
// seed binds the next candidate, still equals a fresh binding of its own
// candidate after the seed has bound every other one, holds none of the
// cut scratch, and scores random lane blocks to the same losses as the
// fresh binding, over the nuclei of krogan at k = 0..2.
func TestWorldPeelSeedClone(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := dataset.Generate(dataset.MustLoad("krogan", dataset.Scale(0.04))).G
	root := newIndex(g)
	inc := NewTriIncidence(root, g)
	nu := refNucleusPeel(root)
	checked := 0
	for k := 0; k <= 2; k++ {
		cands := KNuclei(root, inc, nu, k)
		if len(cands) < 2 {
			continue
		}
		var union []graph.Edge
		for _, c := range cands {
			union = append(union, c.Edges...)
		}
		slices.SortFunc(union, compareEdges)
		union = slices.Compact(union)
		laneOf := LaneIndex(nil, g, union)
		var s WorldPeelSeed
		clones := make([]WorldPeelSeed, len(cands))
		for i, c := range cands {
			s.Seed(root, inc, c.TriIDs, laneOf, k)
			clones[i] = s.Clone()
		}
		lanes := make([]uint64, len(union))
		var ws WorldMembershipScorer
		for i, c := range cands {
			var fresh WorldPeelSeed
			fresh.Seed(root, inc, c.TriIDs, laneOf, k)
			cl := &clones[i]
			if got, want := peelSeedState(cl), peelSeedState(&fresh); !sameState(got, want) || !slices.Equal(cl.inCore, fresh.inCore) || cl.k != k {
				t.Fatalf("k=%d nucleus %d: clone differs from a fresh binding:\n got %v\nwant %v", k, i, got, want)
			}
			if cl.gen != 0 || cl.edgeStamp != nil || cl.triStamp != nil || cl.viewID != nil || cl.edges != nil || cl.sup != nil || cl.clDead != nil || cl.work != nil {
				t.Fatalf("k=%d nucleus %d: clone holds cut scratch", k, i)
			}
			for b := 0; b < 4; b++ {
				for e := range lanes {
					lanes[e] = rng.Uint64() | rng.Uint64() // edges kept in about 3/4 of the worlds
				}
				valid := rng.Uint64()
				got, want := make([]int32, cl.Len()), make([]int32, fresh.Len())
				ws.ScoreLanes(cl, lanes, valid, got)
				ws.ScoreLanes(&fresh, lanes, valid, want)
				if !slices.Equal(got, want) {
					t.Fatalf("k=%d nucleus %d block %d: clone scores %v, fresh binding %v", k, i, b, got, want)
				}
			}
			checked++
		}
	}
	if checked < 5 {
		t.Fatalf("only %d clones checked", checked)
	}
}
