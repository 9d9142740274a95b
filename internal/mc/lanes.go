package mc

// Lanes is a window of world masks (see Bank.WorldMasksWindow) transposed
// to lane-major form: the worlds are cut into blocks of 64, and for every
// block and every edge one uint64 lane word holds that edge's presence in
// the block's worlds — bit j of Block(b)[e] is set iff edge e exists in
// window world 64b+j. A kernel that evaluates one predicate for 64 worlds
// at once with word-wide AND/OR (decomp's word-parallel weak scoring and
// global scan) reads an edge's lane word in one load instead of testing one
// bit in each of 64 row masks.
//
// The columns of a block are contiguous, in edge order, so a kernel scoring
// one block touches one slice indexed by the union edge ids the row masks
// already use. Lanes past the end of the window in the last block are zero
// in every edge; Valid marks the lanes that hold a world. A Lanes reuses its
// storage across Transpose calls and is read-only between them, so any
// number of workers may score its blocks concurrently.
type Lanes struct {
	cols   []uint64
	stride int // words per block: one per edge slot of a mask row
	rows   int
}

// Transpose fills l from a window of rows row-major world masks of words
// words each (rows×words, as Bank.WorldMasksWindow returns them). Each
// 64-world × 64-edge tile is transposed in registers with the classic
// recursive block swap, so the cost is O(rows×words×6) word operations —
// a small fraction of drawing the masks.
func (l *Lanes) Transpose(masks []uint64, rows, words int) {
	blocks := (rows + 63) / 64
	stride := words * 64
	if n := blocks * stride; cap(l.cols) < n {
		l.cols = make([]uint64, n)
	}
	l.cols, l.stride, l.rows = l.cols[:blocks*stride], stride, rows
	var tile [64]uint64
	for b := 0; b < blocks; b++ {
		r0 := b * 64
		nr := min(rows-r0, 64)
		for w := 0; w < words; w++ {
			for j := 0; j < nr; j++ {
				tile[j] = masks[(r0+j)*words+w]
			}
			clear(tile[nr:])
			transpose64(&tile)
			copy(l.cols[b*stride+w*64:], tile[:])
		}
	}
}

// Blocks returns the number of 64-world blocks: ⌈rows/64⌉.
func (l *Lanes) Blocks() int { return (l.rows + 63) / 64 }

// Block returns block b's lane words, indexed by edge id. The slice aliases
// l and is valid until the next Transpose.
func (l *Lanes) Block(b int) []uint64 { return l.cols[b*l.stride : (b+1)*l.stride] }

// Valid returns the mask of block b's lanes that hold a world of the
// window: all 64 except in a partial last block.
func (l *Lanes) Valid(b int) uint64 {
	if n := l.rows - b*64; n < 64 {
		return 1<<uint(n) - 1
	}
	return ^uint64(0)
}

// transpose64 transposes a 64×64 bit matrix in place, bit c of a[r] being
// entry (r, c): afterwards bit r of a[c] is the former bit c of a[r]. Each
// round j swaps the (row bit j clear, column bit j set) sub-blocks with the
// (row bit j set, column bit j clear) ones; m selects the columns whose
// bit j is clear.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << uint(j)
	}
}
