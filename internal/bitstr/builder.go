package bitstr

// Builder accumulates a bit string by appending, in O(total bits)
// overall — the amortized replacement for chained Concat calls, whose
// copies make n appends O(n²). The zero value is an empty builder ready
// to use.
//
// The flattened-trie label pool (trie.Flat) and key reconstruction in
// recovery walks are the intended users: both append many short labels
// and want one contiguous backing array at the end, so that probes can
// address labels by (offset, length) into a single String.
//
// Invariant: bits at positions ≥ n in the last word are zero, so Append
// can OR shifted words in without masking the destination first.
type Builder struct {
	words []uint64
	n     int
}

// Len returns the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// grow ensures capacity for n total bits.
func (b *Builder) grow(n int) {
	nw := wordsFor(n)
	if nw <= len(b.words) {
		return
	}
	if nw <= cap(b.words) {
		b.words = b.words[:nw]
		return
	}
	w := make([]uint64, nw, nw+nw/2+4)
	copy(w, b.words)
	b.words = w
}

// Append appends every bit of s.
func (b *Builder) Append(s String) {
	if s.n == 0 {
		return
	}
	n := b.n + s.n
	b.grow(n)
	shift := uint(b.n & 63)
	base := b.n >> 6
	if shift == 0 {
		copy(b.words[base:], s.words)
	} else {
		for i, sw := range s.words {
			b.words[base+i] |= sw << shift
			if base+i+1 < len(b.words) {
				b.words[base+i+1] = sw >> (64 - shift)
			}
		}
	}
	b.n = n
	clearTail(b.words, n)
}

// AppendRange appends bits [from, to) of s without materializing the
// slice.
func (b *Builder) AppendRange(s String, from, to int) {
	for i := from; i < to; i += 64 {
		j := i + 64
		if j > to {
			j = to
		}
		b.AppendWord(s.RangeWord(i, j), j-i)
	}
}

// AppendWord appends n ≤ 64 bits packed in w at positions 0..n-1 (the
// storage convention, as produced by RangeWord).
func (b *Builder) AppendWord(w uint64, n int) {
	if n < 0 || n > 64 {
		panic("bitstr: AppendWord length out of range")
	}
	if n == 0 {
		return
	}
	if n < 64 {
		w &= 1<<uint(n) - 1
	}
	tot := b.n + n
	b.grow(tot)
	shift := uint(b.n & 63)
	base := b.n >> 6
	b.words[base] |= w << shift
	if shift != 0 && base+1 < len(b.words) {
		b.words[base+1] = w >> (64 - shift)
	}
	b.n = tot
	clearTail(b.words, tot)
}

// Truncate shortens the builder to n bits; it panics if n exceeds the
// current length. Backtracking tree walks append a label, recurse, then
// truncate back — reconstructing every root-to-node key in O(total
// label bits).
func (b *Builder) Truncate(n int) {
	if n < 0 || n > b.n {
		panic("bitstr: Truncate out of range")
	}
	nw := wordsFor(n)
	for i := nw; i < len(b.words); i++ {
		b.words[i] = 0
	}
	b.words = b.words[:nw]
	b.n = n
	clearTail(b.words, n)
}

// String snapshots the accumulated bits as an immutable String. The
// builder remains usable; the snapshot shares no state with it.
func (b *Builder) String() String {
	if b.n == 0 {
		return Empty
	}
	w := make([]uint64, wordsFor(b.n))
	copy(w, b.words)
	return String{words: w, n: b.n}
}
