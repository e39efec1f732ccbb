// Package hashing implements the binary associatively incremental hash
// function that PIM-trie relies on (paper §4.4, Definitions 2 and 3).
//
// The hash of a bit string b_0 b_1 … b_{n-1} is the polynomial
//
//	h(s) = Σ_i b_i · r^(n-1-i)  (mod p)
//
// over the Mersenne prime field p = 2^61 − 1 with a random base r. This
// gives the two properties the paper needs:
//
//   - incremental (Def. 2):       h(A·B) = h(A)·r^|B| + h(B)
//   - binary associatively
//     incremental (Def. 3):       h(A·B) = h(A) ⊕ h(B) where ⊕ uses only
//     the two hash values and |B|, and is associative. This enables
//     parallel prefix-sum hashing of pivots (Lemma 4.4/4.9).
//
// A Hasher additionally supports a reduced output width so tests can
// force collisions and exercise the verification/redo machinery of the
// trie matching algorithm, and a Rehash seed bump implementing the global
// re-hash of §4.4.3.
package hashing

import (
	"math/bits"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// p is the Mersenne prime 2^61 - 1; arithmetic mod p reduces with shifts.
const p = (1 << 61) - 1

// mulmod returns a*b mod p using a 128-bit intermediate.
func mulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi·2^64 + lo = hi·8·2^61 + lo, and 2^61 ≡ 1 (mod p).
	r := lo&p + lo>>61 + hi<<3&p + hi>>58
	r = r&p + r>>61
	if r >= p {
		r -= p
	}
	return r
}

func addmod(a, b uint64) uint64 {
	s := a + b
	if s >= p {
		s -= p
	}
	return s
}

// Value is a hash value together with the bit length of the hashed
// string. Carrying the length is what makes ⊕ well defined (Def. 3) and
// it also disambiguates strings that differ only by trailing zero bits.
type Value struct {
	H   uint64
	Len int
}

// Hasher hashes bit strings. Construct with New; the zero value is not
// usable. Hashers are safe for concurrent use after construction.
type Hasher struct {
	base    uint64      // random polynomial base r
	width   uint        // output width in bits, 1..61
	mask    uint64      // (1<<width)-1 applied to Out only
	byteT   [256]uint64 // byteT[b] = Σ bit_j(b)·r^(7-j): per-byte Horner step
	pow8    uint64      // r^8
	pow64   uint64      // r^64
	pows    []uint64    // r^0..r^63 for partial-word steps
	baseInv uint64      // r^(-1), for Shrink
}

// New returns a Hasher with the given seed. Different seeds give
// independent hash functions (the global re-hash of §4.4.3 constructs a
// new Hasher with a fresh seed). Width selects the number of output bits
// exposed by Out, default/max 61; use small widths only in tests.
func New(seed uint64, width uint) *Hasher {
	if width == 0 || width > 61 {
		width = 61
	}
	h := &Hasher{width: width}
	// Derive a base in [2^32, p) from the seed with splitmix64 so that
	// even adjacent seeds give unrelated bases.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	h.base = z%(p-(1<<32)) + (1 << 32)
	h.mask = (uint64(1) << width) - 1
	h.pows = make([]uint64, 64)
	h.pows[0] = 1
	for i := 1; i < 64; i++ {
		h.pows[i] = mulmod(h.pows[i-1], h.base)
	}
	h.pow8 = h.pows[8]
	h.pow64 = mulmod(h.pows[63], h.base)
	h.baseInv = powmod(h.base, p-2) // Fermat inverse, for Shrink
	for b := 0; b < 256; b++ {
		var v uint64
		for j := 0; j < 8; j++ {
			v = mulmod(v, h.base)
			if b&(1<<uint(j)) != 0 { // bit j of the string byte, LSB-first storage
				v = addmod(v, 1)
			}
		}
		h.byteT[b] = v
	}
	return h
}

// Width returns the configured output width in bits.
func (h *Hasher) Width() uint { return h.width }

// Hash computes the full-precision hash value of s, processing the
// backing words byte-at-a-time via the precomputed table.
func (h *Hasher) Hash(s bitstr.String) Value {
	var acc uint64
	n := s.Len()
	words := s.RawWords()
	full := n >> 6 // complete words
	for i := 0; i < full; i++ {
		w := words[i]
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>8)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>16)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>24)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>32)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>40)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>48)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>56)])
	}
	for i := full * 64; i < n; i++ {
		acc = mulmod(acc, h.base)
		if s.BitAt(i) != 0 {
			acc = addmod(acc, 1)
		}
	}
	return Value{H: acc, Len: n}
}

// HashRange computes Hash(s.Slice(from, to)) without materializing the
// slice: virtual words are assembled from the packed backing words with
// two shifts and fed through the same byte table as Hash. This is the
// allocation-free kernel under the Op batches — every h.Hash(x.Slice(...))
// pattern on a hot path should be HashRange instead.
func (h *Hasher) HashRange(s bitstr.String, from, to int) Value {
	n := to - from
	if from < 0 || to > s.Len() || n < 0 {
		panic("hashing: HashRange out of range")
	}
	if n == 0 {
		return Value{}
	}
	var acc uint64
	words := s.RawWords()
	base := from >> 6
	shift := uint(from & 63)
	full := n >> 6
	for i := 0; i < full; i++ {
		w := words[base+i] >> shift
		if shift != 0 {
			// In bounds: the virtual word's last bit from+i*64+63 < to <= s.Len().
			w |= words[base+i+1] << (64 - shift)
		}
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>8)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>16)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>24)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>32)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>40)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>48)])
		acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w>>56)])
	}
	if rem := n & 63; rem != 0 {
		w := s.RangeWord(from+full*64, to)
		for ; rem >= 8; rem -= 8 {
			acc = addmod(mulmod(acc, h.pow8), h.byteT[byte(w)])
			w >>= 8
		}
		for ; rem > 0; rem-- {
			acc = mulmod(acc, h.base)
			if w&1 != 0 {
				acc = addmod(acc, 1)
			}
			w >>= 1
		}
	}
	return Value{H: acc, Len: n}
}

// ExtendRange is Extend(a, s.Slice(from, to)) off the packed words:
// Combine(a, HashRange(s, from, to)) without the intermediate String.
func (h *Hasher) ExtendRange(a Value, s bitstr.String, from, to int) Value {
	b := h.HashRange(s, from, to)
	return Value{H: addmod(mulmod(a.H, h.powN(b.Len)), b.H), Len: a.Len + b.Len}
}

// EmptyValue is the hash of the empty string.
func EmptyValue() Value { return Value{} }

// Combine implements the binary associative operation ⊕ of Definition 3:
// Combine(h(A), h(B)) = h(A·B), using only the values and |B|.
func (h *Hasher) Combine(a, b Value) Value {
	return Value{H: addmod(mulmod(a.H, h.powN(b.Len)), b.H), Len: a.Len + b.Len}
}

// ExtendBit extends a hash value by a single bit in O(1); the bit-by-bit
// edge walks of HashMatching (Algorithm 3) use it to enumerate hidden
// node hashes along a compressed edge.
func (h *Hasher) ExtendBit(a Value, bit byte) Value {
	v := mulmod(a.H, h.base)
	if bit != 0 {
		v = addmod(v, 1)
	}
	return Value{H: v, Len: a.Len + 1}
}

// Extend implements the incremental f of Definition 2:
// Extend(h(A), B) = h(A·B) from the value of A and the bits of B.
func (h *Hasher) Extend(a Value, b bitstr.String) Value {
	return h.Combine(a, h.Hash(b))
}

// powN returns base^n mod p, fast for n < 64 via the table and by
// repeated squaring otherwise.
func (h *Hasher) powN(n int) uint64 {
	if n < 64 {
		return h.pows[n]
	}
	acc := uint64(1)
	sq := h.pow64
	k := n >> 6
	for k > 0 {
		if k&1 == 1 {
			acc = mulmod(acc, sq)
		}
		sq = mulmod(sq, sq)
		k >>= 1
	}
	return mulmod(acc, h.pows[n&63])
}

// Shrink is the inverse of Extend: given h(A·B) and the bits of B, it
// recovers h(A). Polynomial hashes are invertible because the base has a
// multiplicative inverse mod p: h(A) = (h(AB) − h(B)) · r^(−|B|).
// PIM-trie uses it to derive pivot-prefix hashes that lie above a block
// root from the root's value and its S_last window (§4.4.2).
func (h *Hasher) Shrink(ab Value, b bitstr.String) Value {
	n := b.Len()
	if n > ab.Len {
		panic("hashing: Shrink suffix longer than the value")
	}
	hb := h.Hash(b)
	diff := ab.H + p - hb.H
	if diff >= p {
		diff -= p
	}
	return Value{H: mulmod(diff, h.powInvN(n)), Len: ab.Len - n}
}

// powInvN returns base^(-n) mod p.
func (h *Hasher) powInvN(n int) uint64 {
	acc := uint64(1)
	sq := h.baseInv
	for k := n; k > 0; k >>= 1 {
		if k&1 == 1 {
			acc = mulmod(acc, sq)
		}
		sq = mulmod(sq, sq)
	}
	return acc
}

// powmod computes b^e mod p by square-and-multiply.
func powmod(b, e uint64) uint64 {
	acc := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			acc = mulmod(acc, b)
		}
		b = mulmod(b, b)
	}
	return acc
}

// Out reduces a hash value to the configured output width. The trie
// matching algorithm compares Out values; with small widths distinct
// strings may collide, which the verification procedure must catch.
func (h *Hasher) Out(v Value) uint64 {
	// Mix before masking so narrow widths still use all input bits.
	return h.OutFull(v) & h.mask
}

// OutFull is Out at the full 64 bits, whatever the configured width. It
// keys what verification cannot check: §4.4.2's pivot classes, whose
// collision would hide a block root from the probe instead of raising a
// false hit that verification drops.
func (h *Hasher) OutFull(v Value) uint64 {
	z := v.H + 0x9e3779b97f4a7c15*uint64(v.Len+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ z>>31
}

// HashOut is shorthand for Out(Hash(s)).
func (h *Hasher) HashOut(s bitstr.String) uint64 { return h.Out(h.Hash(s)) }

// PrefixHashes returns the hash values of every prefix of s whose length
// is a multiple of stride bits (the pivot prefixes of §4.4.2), computed
// in one left-to-right pass: result[i] = Hash(s[:i*stride]).
// The slice has 1+Len/stride entries, starting with the empty prefix.
func (h *Hasher) PrefixHashes(s bitstr.String, stride int) []Value {
	if stride <= 0 {
		panic("hashing: stride must be positive")
	}
	k := s.Len()/stride + 1
	out := make([]Value, k)
	acc := Value{}
	for i := 1; i < k; i++ {
		acc = h.ExtendRange(acc, s, (i-1)*stride, i*stride)
		out[i] = acc
	}
	return out
}
