// Package bitstr implements variable-length bit strings stored in machine
// words. It is the fundamental key type of the PIM-trie: every trie edge
// label, every stored key, and every query key is a bitstr.String.
//
// Bits are addressed from 0 (the first, most significant in lexicographic
// order) to Len()-1. Internally bit i lives in word i/64 at position i%64,
// least-significant-bit first, so that word-granularity operations (LCP,
// slicing, hashing) can work 64 bits at a time with shifts and XORs.
//
// A String is an immutable value: all operations return new strings or
// plain values and never mutate their receiver. The zero value is the
// empty string and is ready to use.
package bitstr

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// WordBits is the machine word size w used throughout the PIM-trie
// analysis. Values and hash results are O(w) bits; block sizes, pivot
// spacing and the two-layer index all reference this constant.
const WordBits = 64

// String is an immutable bit string of arbitrary length.
type String struct {
	words []uint64 // bit i at words[i>>6] >> (i&63) & 1
	n     int      // length in bits
}

// Empty is the zero-length bit string.
var Empty = String{}

// wordsFor returns the number of words needed to hold n bits.
func wordsFor(n int) int { return (n + 63) >> 6 }

// New returns a bit string of length n whose words are taken from w.
// The slice is copied. Bits beyond n in the last word are cleared.
func New(w []uint64, n int) String {
	if n < 0 {
		panic("bitstr: negative length")
	}
	nw := wordsFor(n)
	if len(w) < nw {
		panic("bitstr: word slice too short for length")
	}
	cp := make([]uint64, nw)
	copy(cp, w[:nw])
	clearTail(cp, n)
	return String{words: cp, n: n}
}

// clearTail zeroes the bits at positions >= n in the final word.
func clearTail(w []uint64, n int) {
	if r := n & 63; r != 0 && len(w) > 0 {
		w[len(w)-1] &= (1 << uint(r)) - 1
	}
}

// Parse builds a bit string from a textual form like "010110".
// Characters other than '0' and '1' are rejected.
func Parse(s string) (String, error) {
	w := make([]uint64, wordsFor(len(s)))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			w[i>>6] |= 1 << uint(i&63)
		case '0':
		default:
			return Empty, fmt.Errorf("bitstr: invalid character %q at %d", s[i], i)
		}
	}
	return String{words: w, n: len(s)}, nil
}

// MustParse is Parse that panics on error; intended for constants in
// tests and examples.
func MustParse(s string) String {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

// FromBytes interprets each byte of b most-significant-bit first, the
// conventional lexicographic encoding of byte strings (so the bitwise
// order of FromBytes strings matches bytes.Compare order).
func FromBytes(b []byte) String {
	w := make([]uint64, wordsFor(len(b)*8))
	for i, c := range b {
		for j := 0; j < 8; j++ {
			if c&(0x80>>uint(j)) != 0 {
				pos := i*8 + j
				w[pos>>6] |= 1 << uint(pos&63)
			}
		}
	}
	return String{words: w, n: len(b) * 8}
}

// FromUint64 encodes v as exactly n bits (n <= 64), most significant bit
// of the n-bit value first, matching integer order.
func FromUint64(v uint64, n int) String {
	if n < 0 || n > 64 {
		panic("bitstr: FromUint64 length out of range")
	}
	w := make([]uint64, wordsFor(n))
	for j := 0; j < n; j++ {
		if v&(1<<uint(n-1-j)) != 0 {
			w[0] |= 1 << uint(j)
		}
	}
	return String{words: w, n: n}
}

// Uint64 decodes the first min(n,64) bits as a big-endian integer, the
// inverse of FromUint64. Bit j (stored at word position j) contributes
// 2^(n-1-j), so reversing the word aligns bit j with 2^(63-j) and a
// single shift rescales to the n-bit value.
func (s String) Uint64() uint64 {
	n := s.n
	if n == 0 {
		return 0
	}
	w := s.words[0]
	if n >= 64 {
		return bits.Reverse64(w)
	}
	return bits.Reverse64(w&(1<<uint(n)-1)) >> uint(64-n)
}

// Len returns the length in bits.
func (s String) Len() int { return s.n }

// IsEmpty reports whether the string has zero length.
func (s String) IsEmpty() bool { return s.n == 0 }

// Words returns the number of machine words occupied, the unit in which
// the PIM Model accounts space and communication.
func (s String) Words() int { return wordsFor(s.n) }

// SizeWords returns the space of the string in the PIM model: its payload
// words plus one word for the length header.
func (s String) SizeWords() int { return s.Words() + 1 }

// BitAt returns bit i as 0 or 1. It panics if i is out of range.
func (s String) BitAt(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: BitAt(%d) out of range [0,%d)", i, s.n))
	}
	return byte(s.words[i>>6] >> uint(i&63) & 1)
}

// FirstBit returns bit 0; the trie uses it to pick a child branch.
func (s String) FirstBit() byte { return s.BitAt(0) }

// RawWords exposes the backing words (read-only by convention) so that
// hashing and the PIM simulator can account and process word-at-a-time.
func (s String) RawWords() []uint64 { return s.words }

// Slice returns the substring of bits [from, to). It panics on an invalid
// range. The result shares no state with the receiver.
func (s String) Slice(from, to int) String {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitstr: Slice(%d,%d) out of range [0,%d]", from, to, s.n))
	}
	n := to - from
	if n == 0 {
		return Empty
	}
	w := make([]uint64, wordsFor(n))
	shift := uint(from & 63)
	base := from >> 6
	if shift == 0 {
		copy(w, s.words[base:base+wordsFor(n)])
	} else {
		for i := range w {
			lo := s.words[base+i] >> shift
			var hi uint64
			if base+i+1 < len(s.words) {
				hi = s.words[base+i+1] << (64 - shift)
			}
			w[i] = lo | hi
		}
	}
	clearTail(w, n)
	return String{words: w, n: n}
}

// RangeWord returns bits [from, to) — at most 64 of them — packed into a
// uint64 at positions 0..to-from-1 (the storage convention), with higher
// positions zero. It is the word-granularity fetch underlying the
// allocation-free range kernels (LCPRange, hashing.HashRange): a Slice
// of ≤ w bits without materializing a String.
func (s String) RangeWord(from, to int) uint64 {
	n := to - from
	if n == 0 {
		return 0
	}
	if from < 0 || to > s.n || n < 0 || n > 64 {
		panic(fmt.Sprintf("bitstr: RangeWord(%d,%d) out of range [0,%d]", from, to, s.n))
	}
	base := from >> 6
	shift := uint(from & 63)
	w := s.words[base] >> shift
	if shift != 0 && base+1 < len(s.words) {
		w |= s.words[base+1] << (64 - shift)
	}
	if n < 64 {
		w &= 1<<uint(n) - 1
	}
	return w
}

// LCPRange returns the length of the longest common prefix of bits
// [afrom, afrom+n) of a and [bfrom, bfrom+n) of b, comparing 64 bits at
// a time without allocating — the range twin of LCP.
func LCPRange(a String, afrom int, b String, bfrom, n int) int {
	i := 0
	for ; i+64 <= n; i += 64 {
		if x := a.RangeWord(afrom+i, afrom+i+64) ^ b.RangeWord(bfrom+i, bfrom+i+64); x != 0 {
			return i + bits.TrailingZeros64(x)
		}
	}
	if i < n {
		if x := a.RangeWord(afrom+i, afrom+n) ^ b.RangeWord(bfrom+i, bfrom+n); x != 0 {
			return i + bits.TrailingZeros64(x)
		}
	}
	return n
}

// EqualRange reports whether bits [afrom, afrom+n) of a equal bits
// [bfrom, bfrom+n) of b.
func EqualRange(a String, afrom int, b String, bfrom, n int) bool {
	return LCPRange(a, afrom, b, bfrom, n) == n
}

// Prefix returns the first n bits.
func (s String) Prefix(n int) String { return s.Slice(0, n) }

// Suffix returns the bits from position n to the end.
func (s String) Suffix(n int) String { return s.Slice(n, s.n) }

// PrefixIndex returns the first min(bits, Len) bits of s as the HIGH
// bits of a bits-wide integer, zero-padded on the right for shorter
// strings, so numeric order of indexes agrees with lexicographic order
// of the underlying prefixes: FromUint64(v, bits).PrefixIndex(bits) ==
// v, and every extension of s maps into the contiguous index range
// [PrefixIndex(s), PrefixIndex(s) + 2^(bits-Len)). It is the routing
// primitive of prefix-range partitioning (internal/shard) and of the
// serving layer's per-prefix load counters. bits must be in [1, 63].
func (s String) PrefixIndex(width int) int {
	if width < 1 || width > 63 {
		panic(fmt.Sprintf("bitstr: PrefixIndex width %d out of range [1,63]", width))
	}
	n := s.n
	if n > width {
		n = width
	}
	if n == 0 {
		return 0
	}
	return int(bits.Reverse64(s.RangeWord(0, n)) >> uint(64-width))
}

// Concat returns the concatenation s·t.
func (s String) Concat(t String) String {
	if t.n == 0 {
		return s
	}
	if s.n == 0 {
		return t
	}
	n := s.n + t.n
	w := make([]uint64, wordsFor(n))
	copy(w, s.words)
	shift := uint(s.n & 63)
	base := s.n >> 6
	if shift == 0 {
		copy(w[base:], t.words)
	} else {
		for i, tw := range t.words {
			w[base+i] |= tw << shift
			if base+i+1 < len(w) {
				w[base+i+1] = tw >> (64 - shift)
			}
		}
	}
	clearTail(w, n)
	return String{words: w, n: n}
}

// LCP returns the length in bits of the longest common prefix of s and t.
// It compares word-at-a-time: XOR exposes the first differing bit, found
// with a trailing-zero count because bit i is stored at word position i%64.
func LCP(s, t String) int {
	n := s.n
	if t.n < n {
		n = t.n
	}
	nw := wordsFor(n)
	for i := 0; i < nw; i++ {
		if x := s.words[i] ^ t.words[i]; x != 0 {
			d := i*64 + bits.TrailingZeros64(x)
			if d < n {
				return d
			}
			return n
		}
	}
	return n
}

// HasPrefix reports whether p is a prefix of s.
func (s String) HasPrefix(p String) bool {
	return p.n <= s.n && LCP(s, p) == p.n
}

// Equal reports whether s and t are the same bit string.
func Equal(s, t String) bool {
	return s.n == t.n && LCP(s, t) == s.n
}

// Compare orders bit strings lexicographically with the convention that a
// proper prefix sorts before its extensions ("0" < "00" < "01").
// It returns -1, 0, or +1.
func Compare(s, t String) int {
	l := LCP(s, t)
	switch {
	case l == s.n && l == t.n:
		return 0
	case l == s.n:
		return -1
	case l == t.n:
		return 1
	case s.BitAt(l) < t.BitAt(l):
		return -1
	default:
		return 1
	}
}

// PadTo returns s extended to length n by repeating bit b; if s is already
// at least n bits it is returned unchanged.
func (s String) PadTo(n int, b byte) String {
	if s.n >= n {
		return s
	}
	w := make([]uint64, wordsFor(n))
	copy(w, s.words)
	if b != 0 {
		// Set every bit in [s.n, n).
		for i := s.n; i < n && i&63 != 0; i++ {
			w[i>>6] |= 1 << uint(i&63)
		}
		start := (s.n + 63) &^ 63
		for i := start; i+64 <= n; i += 64 {
			w[i>>6] = ^uint64(0)
		}
		for i := n &^ 63; i < n; i++ {
			if i >= s.n {
				w[i>>6] |= 1 << uint(i&63)
			}
		}
	}
	clearTail(w, n)
	return String{words: w, n: n}
}

// String renders the bits as '0'/'1' characters, bit 0 first.
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.WriteByte('0' + s.BitAt(i))
	}
	return b.String()
}

// GoString implements fmt.GoStringer for readable %#v output in tests.
func (s String) GoString() string { return fmt.Sprintf("bitstr(%q)", s.String()) }

// Bytes packs the bits back into bytes, MSB-first per byte (inverse of
// FromBytes when Len is a multiple of 8); trailing bits are zero-padded.
func (s String) Bytes() []byte {
	out := make([]byte, (s.n+7)/8)
	for i := 0; i < s.n; i++ {
		if s.BitAt(i) != 0 {
			out[i/8] |= 0x80 >> uint(i%8)
		}
	}
	return out
}

// ArgSort permutes idx so that keys[idx[0]], keys[idx[1]], ... ascend in
// Compare order, using a most significant digit radix sort on 64-bit
// chunks of the packed words that falls back to insertion sort for tiny
// buckets. Up to procs goroutines sort disjoint sub-ranges; the
// permutation is independent of procs and scheduling (partitions are
// computed sequentially before any fork, only disjoint sub-slices run
// concurrently). Equal keys keep no particular relative order.
func ArgSort(keys []String, idx []int, procs int) {
	if procs < 1 {
		procs = 1
	}
	var wg sync.WaitGroup
	msdSort(keys, idx, 0, procs, &wg)
	wg.Wait()
}

const insertionCutoff = 12

// sortForkGrain is the smallest sub-slice worth handing to a goroutine.
const sortForkGrain = 2048

// prefetchDist is how many elements ahead of the partition cursor the
// chunk word of an upcoming element is loaded. Go has no portable
// prefetch intrinsic, so the "prefetch" is an early plain load: the
// String header and its chunk word land in cache a few iterations
// before chunkOf needs them, and because the touched values feed
// nothing the loop branches on, out-of-order execution overlaps their
// misses with the in-flight comparisons. Elements swapped in from the
// gt side are touched late or not at all — prefetching is best-effort
// and never affects the permutation.
const prefetchDist = 8

// prefetchSink defeats dead-load elimination: the partition loop folds
// every touched word into a local accumulator and conditionally
// publishes it here behind a compare the compiler cannot resolve. The
// store is, for all practical purposes, never executed (probability
// 2⁻⁶⁴ per partition), so concurrent sorters do not race on it.
var prefetchSink uint64

const sinkSentinel = 0x9e3779b97f4a7c15

// touch loads the word chunkOf will need for s: the software-prefetch
// point of the partition loop.
func touch(s *String, wordIdx int) uint64 {
	if wordIdx < len(s.words) {
		return s.words[wordIdx]
	}
	return 0
}

// msdSort 3-way-quicksorts es, indexes into keys, by the (live,
// reversed-word) chunk at wordIdx: the left and right bands stay at this
// word, the equal band advances to the next word (all its strings share
// this chunk) or — when the shared chunk is exhausted — finishes with
// comparison sort, since those strings end before this word and differ
// only in earlier length.
func msdSort(keys []String, es []int, wordIdx, procs int, wg *sync.WaitGroup) {
	for len(es) > insertionCutoff {
		pw, plive := chunkOf(keys[es[(len(es)-1)/2]], wordIdx)
		lt, gt, i := 0, len(es)-1, 0
		sink := uint64(0)
		for i <= gt {
			if i+prefetchDist <= gt {
				sink ^= touch(&keys[es[i+prefetchDist]], wordIdx)
			}
			kw, klive := chunkOf(keys[es[i]], wordIdx)
			switch {
			case chunkLess(kw, klive, pw, plive):
				es[lt], es[i] = es[i], es[lt]
				lt++
				i++
			case chunkLess(pw, plive, kw, klive):
				es[gt], es[i] = es[i], es[gt]
				gt--
			default:
				i++
			}
		}
		if sink == sinkSentinel {
			prefetchSink = sink
		}
		mid, left := es[lt:gt+1], es[:lt]
		es = es[gt+1:]
		if plive {
			procs = forkSort(keys, mid, wordIdx+1, procs, wg)
		} else {
			insertionSort(keys, mid)
		}
		procs = forkSort(keys, left, wordIdx, procs, wg)
	}
	insertionSort(keys, es)
}

// forkSort recurses on a disjoint sub-slice, spawning a goroutine with
// half the procs budget when the slice is big enough, and returns the
// budget kept by the caller.
func forkSort(keys []String, es []int, wordIdx, procs int, wg *sync.WaitGroup) int {
	if procs > 1 && len(es) >= sortForkGrain {
		half := procs / 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			msdSort(keys, es, wordIdx, half, wg)
		}()
		return procs - half
	}
	msdSort(keys, es, wordIdx, 1, wg)
	return procs
}

// chunkOf returns word wordIdx of s bit-reversed — so uint64 order
// agrees with lexicographic bit-0-first order — plus a live flag;
// live == false means s ends at or before this word's start. The flag
// is carried OUTSIDE the 64-bit chunk: an earlier encoding stole a
// value by saturating an all-ones chunk, which collided with the
// genuinely distinct chunk 0xFF..FE and let the equal band recurse past
// the difference (TestSortSaturationRegression).
func chunkOf(s String, wordIdx int) (w uint64, live bool) {
	if s.n <= wordIdx*64 {
		return 0, false
	}
	return bits.Reverse64(s.words[wordIdx]), true
}

// chunkLess orders chunks: exhausted before live — a string that ends
// earlier yet matched every prior chunk is a prefix of the live ones,
// and prefixes sort first — then by reversed word value. Strings ending
// inside the word compare by their zero-padded chunk; on a tie the
// shorter string is a genuine prefix and wins at the next level's
// exhaustion check.
func chunkLess(aw uint64, alive bool, bw uint64, blive bool) bool {
	if alive != blive {
		return blive
	}
	return aw < bw
}

func insertionSort(keys []String, es []int) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && Compare(keys[es[j]], keys[es[j-1]]) < 0; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
