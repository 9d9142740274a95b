// Package bucket implements the lazy bucket priority queue used by all the
// peeling algorithms (core, truss, and nucleus decompositions). Items are
// identified by dense int32 ids and keyed by small non-negative integers;
// keys only ever decrease toward the current minimum, which is the access
// pattern peeling produces, so Pop runs in amortized O(1 + Δkey).
package bucket

// Queue is a monotone bucket priority queue with lazy deletion: Update
// simply appends the item to its new bucket, and Pop skips entries whose
// recorded key is stale.
type Queue struct {
	buckets [][]int32
	key     []int32 // current key of each item; -1 when removed
	cur     int     // smallest bucket that may be non-empty
	remain  int     // live items
}

// New creates a queue for n items with keys in [0, maxKey]. All items start
// absent; call Push to insert.
func New(n, maxKey int) *Queue {
	q := &Queue{}
	q.Reset(n, maxKey)
	return q
}

// Reset reinitialises the queue for n items with keys in [0, maxKey],
// reusing the bucket and key storage from previous rounds. It lets hot loops
// (per-sampled-world peeling) run many decompositions on one queue without
// reallocating; the zero value of Queue is ready for Reset.
func (q *Queue) Reset(n, maxKey int) {
	if cap(q.key) < n {
		q.key = make([]int32, n)
	}
	q.key = q.key[:n]
	for i := range q.key {
		q.key[i] = -1
	}
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	for len(q.buckets) < maxKey+2 {
		q.buckets = append(q.buckets, nil)
	}
	q.cur = 0
	q.remain = 0
}

// Push inserts item id with the given key. Pushing an already-present item
// is a programming error and panics.
func (q *Queue) Push(id int32, key int) {
	if q.key[id] != -1 {
		panic("bucket: duplicate Push")
	}
	q.grow(key)
	q.key[id] = int32(key)
	q.buckets[key] = append(q.buckets[key], id)
	if key < q.cur {
		q.cur = key
	}
	q.remain++
}

// Update changes the key of a live item. The new key may be smaller or
// larger than the old one; stale bucket entries are skipped lazily by Pop.
func (q *Queue) Update(id int32, key int) {
	if q.key[id] == -1 {
		panic("bucket: Update of absent item")
	}
	if int(q.key[id]) == key {
		return
	}
	q.grow(key)
	q.key[id] = int32(key)
	q.buckets[key] = append(q.buckets[key], id)
	if key < q.cur {
		q.cur = key
	}
}

// Key returns the current key of id, or -1 if it was popped or never pushed.
func (q *Queue) Key(id int32) int { return int(q.key[id]) }

// Len returns the number of live items.
func (q *Queue) Len() int { return q.remain }

// Pop removes and returns a live item with the minimum key. It returns
// ok=false when the queue is empty.
func (q *Queue) Pop() (id int32, key int, ok bool) {
	if q.remain == 0 {
		return 0, 0, false
	}
	for q.cur < len(q.buckets) {
		b := q.buckets[q.cur]
		if len(b) == 0 {
			q.cur++
			continue
		}
		id := b[len(b)-1]
		q.buckets[q.cur] = b[:len(b)-1]
		if q.key[id] != int32(q.cur) {
			continue // stale entry
		}
		q.key[id] = -1
		q.remain--
		return id, q.cur, true
	}
	return 0, 0, false
}

// PopAtMost pops live items whose key is at most maxKey, in Pop's order,
// and appends them to dst: all of them when limit < 1, otherwise at most
// limit. A level-synchronous peel pops a whole level at once with it; with
// limit 1 it pops exactly the item Pop would.
func (q *Queue) PopAtMost(maxKey, limit int, dst []int32) []int32 {
	popped := 0
	for q.remain > 0 && q.cur <= maxKey && q.cur < len(q.buckets) && (limit < 1 || popped < limit) {
		b := q.buckets[q.cur]
		if len(b) == 0 {
			q.cur++
			continue
		}
		id := b[len(b)-1]
		q.buckets[q.cur] = b[:len(b)-1]
		if q.key[id] != int32(q.cur) {
			continue // stale entry
		}
		q.key[id] = -1
		q.remain--
		dst = append(dst, id)
		popped++
	}
	return dst
}

// MinKey returns the smallest key of a live item, or -1 when the queue is
// empty. It discards the stale entries it passes on the way.
func (q *Queue) MinKey() int {
	if q.remain == 0 {
		return -1
	}
	for ; q.cur < len(q.buckets); q.cur++ {
		b := q.buckets[q.cur]
		for len(b) > 0 && q.key[b[len(b)-1]] != int32(q.cur) {
			b = b[:len(b)-1]
		}
		q.buckets[q.cur] = b
		if len(b) > 0 {
			return q.cur
		}
	}
	return -1
}

func (q *Queue) grow(key int) {
	for key >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
}
