package decomp

import (
	"math/rand"
	"testing"

	"probnucleus/internal/graph"
)

func TestCliqueAdjK5(t *testing.T) {
	ca := NewCliqueAdj(completeGraph(5))
	if ca.Len() != 10 {
		t.Fatalf("Len = %d, want 10 triangles", ca.Len())
	}
	for tr := 0; tr < ca.Len(); tr++ {
		if ca.AliveCount[tr] != 2 {
			t.Errorf("triangle %d alive count = %d, want 2 (K5)", tr, ca.AliveCount[tr])
		}
	}
}

func TestCliqueTrianglesMapping(t *testing.T) {
	ca := NewCliqueAdj(completeGraph(4))
	// Triangle (0,1,2) with completion 3: the sibling walk yields (0,1,3),
	// (0,2,3), (1,2,3), in that order.
	id, ok := ca.TI.ID(graph.Triangle{A: 0, B: 1, C: 2})
	if !ok {
		t.Fatal("triangle missing")
	}
	sib := ca.inc.siblings(id)
	ids := sib.next(3)
	want := [3]graph.Triangle{{A: 0, B: 1, C: 3}, {A: 0, B: 2, C: 3}, {A: 1, B: 2, C: 3}}
	for i, oid := range ids {
		if tri := ca.TI.Tris[oid]; tri != want[i] {
			t.Errorf("sibling %d = %v, want %v", i, tri, want[i])
		}
	}
}

func TestRemoveTriangleCascade(t *testing.T) {
	// K4: removing one triangle kills the single 4-clique; the other three
	// triangles each lose their only completion, exactly once.
	ca := NewCliqueAdj(completeGraph(4))
	updates := map[int32]int{}
	ca.RemoveTriangle(0, func(o int32, _ int) { updates[o]++ })
	if len(updates) != 3 {
		t.Fatalf("%d updated triangles, want 3", len(updates))
	}
	for o, n := range updates {
		if n != 1 {
			t.Errorf("triangle %d updated %d times, want 1", o, n)
		}
		if ca.AliveCount[o] != 0 {
			t.Errorf("triangle %d alive count = %d, want 0", o, ca.AliveCount[o])
		}
	}
	if !ca.Dead[0] {
		t.Error("removed triangle not marked dead")
	}
	// Removing again is a no-op.
	ca.RemoveTriangle(0, func(o int32, _ int) { t.Error("update after re-removal") })
}

func TestRemoveCompletionIdempotent(t *testing.T) {
	ca := NewCliqueAdj(completeGraph(5))
	id, _ := ca.TI.ID(graph.Triangle{A: 0, B: 1, C: 2})
	if _, ok := ca.RemoveCompletion(id, 3); !ok {
		t.Error("first removal returned false")
	}
	if _, ok := ca.RemoveCompletion(id, 3); ok {
		t.Error("second removal returned true")
	}
	if _, ok := ca.RemoveCompletion(id, 99); ok {
		t.Error("removal of non-completion returned true")
	}
	if ca.AliveCount[id] != 1 {
		t.Errorf("alive count = %d, want 1", ca.AliveCount[id])
	}
}

// TestRemovalOrderInvariance: the final alive state after removing a set of
// triangles is independent of removal order.
func TestRemovalOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		g := randomGraph(rng, 10, 0.6)
		ti := newIndex(g)
		if ti.Len() < 4 {
			continue
		}
		kill := rng.Perm(ti.Len())[:ti.Len()/2]
		run := func(order []int) []int {
			ca := NewCliqueAdjFromIndex(ti, NewTriIncidence(ti, g))
			for _, t2 := range order {
				ca.RemoveTriangle(int32(t2), nil)
			}
			return append([]int(nil), ca.AliveCount...)
		}
		a := run(kill)
		rev := make([]int, len(kill))
		for i, v := range kill {
			rev[len(kill)-1-i] = v
		}
		b := run(rev)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("iter %d: order-dependent alive counts at %d: %d vs %d", iter, i, a[i], b[i])
			}
		}
	}
}

// TestRemoveTriangleReportsSlots: the slot passed to onUpdate is the index
// of the killed clique's completion vertex within the affected triangle's
// sorted completion list — the contract the incremental scorer in package
// core relies on to deconvolve the right Bernoulli factor.
func TestRemoveTriangleReportsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10; iter++ {
		g := randomGraph(rng, 9, 0.7)
		ti := newIndex(g)
		ca := NewCliqueAdjFromIndex(ti, NewTriIncidence(ti, g))
		// Shadow liveness matrix maintained from the callbacks only.
		shadow := make([][]bool, ti.Len())
		for i := range shadow {
			shadow[i] = make([]bool, len(ti.Comps[i]))
			for j := range shadow[i] {
				shadow[i][j] = true
			}
		}
		for _, kill := range rng.Perm(ti.Len()) {
			ca.RemoveTriangle(int32(kill), func(o int32, slot int) {
				if !shadow[o][slot] {
					t.Fatalf("iter %d: slot %d of triangle %d reported dead twice", iter, slot, o)
				}
				shadow[o][slot] = false
			})
			for tr := 0; tr < ti.Len(); tr++ {
				if ca.Dead[tr] {
					continue
				}
				n := 0
				for i, a := range shadow[tr] {
					if a != ca.Alive(int32(tr), i) {
						t.Fatalf("iter %d: triangle %d slot %d: shadow %v vs Alive %v",
							iter, tr, i, a, ca.Alive(int32(tr), i))
					}
					if a {
						n++
					}
				}
				if n != ca.AliveCount[tr] {
					t.Fatalf("iter %d: triangle %d AliveCount %d, shadow %d", iter, tr, ca.AliveCount[tr], n)
				}
			}
		}
	}
}

// TestCliqueAdjResetReuses: Reset must restore full liveness over a (possibly
// different) index without reallocating when the old storage fits, and the
// peeling result after Reset must match a fresh adjacency.
func TestCliqueAdjResetReuses(t *testing.T) {
	g5 := completeGraph(5)
	g6 := completeGraph(6)
	ca := NewCliqueAdj(g6) // big first, so g5 rounds reuse storage
	for round := 0; round < 3; round++ {
		ti := newIndex(g5)
		ca.Reset(ti, NewTriIncidence(ti, g5))
		for t5 := 0; t5 < ti.Len(); t5++ {
			if ca.AliveCount[t5] != len(ti.Comps[t5]) || ca.Dead[t5] {
				t.Fatalf("round %d: triangle %d not fully alive after Reset", round, t5)
			}
		}
		nu := nucleusPeel(ca)
		for t5, v := range nu {
			if v != 2 {
				t.Fatalf("round %d: K5 nucleusness[%d] = %d, want 2", round, t5, v)
			}
		}
	}
}
