package hashing

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

func randomBits(r *rand.Rand, maxLen int) bitstr.String {
	n := r.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(r.Intn(2))
	}
	return bitstr.MustParse(string(b))
}

// naiveHash computes the polynomial hash bit-by-bit, as the definition
// states, to validate the table-driven fast path.
func naiveHash(h *Hasher, s bitstr.String) Value {
	var acc uint64
	for i := 0; i < s.Len(); i++ {
		acc = mulmod(acc, h.base)
		if s.BitAt(i) != 0 {
			acc = addmod(acc, 1)
		}
	}
	return Value{H: acc, Len: s.Len()}
}

func TestHashMatchesNaive(t *testing.T) {
	h := New(42, 0)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := randomBits(r, 400)
		if got, want := h.Hash(s), naiveHash(h, s); got != want {
			t.Fatalf("Hash(%q) = %+v, want %+v", s, got, want)
		}
	}
}

func TestIncrementalDefinition2(t *testing.T) {
	// h(A·B) must equal Extend(h(A), B) for all A, B.
	h := New(7, 0)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randomBits(r, 200), randomBits(r, 200)
		direct := h.Hash(a.Concat(b))
		inc := h.Extend(h.Hash(a), b)
		if direct != inc {
			t.Fatalf("Extend broken: A=%q B=%q direct=%+v inc=%+v", a, b, direct, inc)
		}
	}
}

func TestCombineDefinition3(t *testing.T) {
	// ⊕ must compute h(A·B) from the two values alone.
	h := New(9, 0)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := randomBits(r, 300), randomBits(r, 300)
		if got, want := h.Combine(h.Hash(a), h.Hash(b)), h.Hash(a.Concat(b)); got != want {
			t.Fatalf("Combine broken: %+v vs %+v", got, want)
		}
	}
}

func TestCombineAssociative(t *testing.T) {
	h := New(11, 0)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		a, b, c := h.Hash(randomBits(r, 100)), h.Hash(randomBits(r, 100)), h.Hash(randomBits(r, 100))
		left := h.Combine(h.Combine(a, b), c)
		right := h.Combine(a, h.Combine(b, c))
		if left != right {
			t.Fatalf("⊕ not associative: %+v vs %+v", left, right)
		}
	}
}

func TestCombineIdentity(t *testing.T) {
	h := New(13, 0)
	v := h.Hash(bitstr.MustParse("101001"))
	if got := h.Combine(EmptyValue(), v); got != v {
		t.Errorf("empty ⊕ v = %+v, want %+v", got, v)
	}
	if got := h.Combine(v, EmptyValue()); got != v {
		t.Errorf("v ⊕ empty = %+v, want %+v", got, v)
	}
}

func TestLengthDisambiguatesTrailingZeros(t *testing.T) {
	// "1" and "10" have the same polynomial value times base... they must
	// not collide because Value carries Len and Out mixes it in.
	h := New(17, 0)
	a, b := bitstr.MustParse("0"), bitstr.MustParse("00")
	if h.Hash(a) == h.Hash(b) {
		t.Fatal("values with different lengths compared equal")
	}
	if h.Out(h.Hash(a)) == h.Out(h.Hash(b)) {
		t.Fatal("Out collided on 0 vs 00 (astronomically unlikely)")
	}
}

func TestDifferentSeedsDisagree(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	s := bitstr.MustParse(strings.Repeat("0110", 20))
	if a.Hash(s) == b.Hash(s) {
		t.Fatal("independent seeds produced identical hashes")
	}
}

func TestRehashChangesOut(t *testing.T) {
	// The global re-hash of §4.4.3 is "construct a new Hasher"; verify the
	// outputs actually move.
	s := bitstr.MustParse("110010")
	h1, h2 := New(100, 16), New(101, 16)
	same := 0
	for i := 0; i < 50; i++ {
		v := s.Concat(bitstr.FromUint64(uint64(i), 16))
		if h1.HashOut(v) == h2.HashOut(v) {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("rehash ineffective: %d/50 outputs unchanged", same)
	}
}

func TestNarrowWidthCollides(t *testing.T) {
	// With a 4-bit output, 100 random strings must collide — this is the
	// property the verification tests rely on.
	h := New(5, 4)
	r := rand.New(rand.NewSource(5))
	seen := map[uint64]bitstr.String{}
	collision := false
	for i := 0; i < 100; i++ {
		s := randomBits(r, 64)
		o := h.HashOut(s)
		if prev, ok := seen[o]; ok && !bitstr.Equal(prev, s) {
			collision = true
			break
		}
		seen[o] = s
	}
	if !collision {
		t.Fatal("no collision at width 4 over 100 strings")
	}
	if h.Width() != 4 {
		t.Fatalf("Width() = %d", h.Width())
	}
}

func TestPrefixHashes(t *testing.T) {
	h := New(21, 0)
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		s := randomBits(r, 500)
		for _, stride := range []int{1, 7, 64} {
			ph := h.PrefixHashes(s, stride)
			want := s.Len()/stride + 1
			if len(ph) != want {
				t.Fatalf("PrefixHashes len = %d, want %d", len(ph), want)
			}
			for i, v := range ph {
				if direct := h.Hash(s.Prefix(i * stride)); v != direct {
					t.Fatalf("prefix %d (stride %d) = %+v, want %+v", i, stride, v, direct)
				}
			}
		}
	}
}

func TestPowN(t *testing.T) {
	h := New(23, 0)
	acc := uint64(1)
	for n := 0; n < 300; n++ {
		if got := h.powN(n); got != acc {
			t.Fatalf("powN(%d) = %d, want %d", n, got, acc)
		}
		acc = mulmod(acc, h.base)
	}
}

func TestMulmodAgainstBigStyle(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= p
		b %= p
		got := mulmod(a, b)
		// Verify via schoolbook 128-bit reduction: compute a*b mod p with
		// repeated halving (Russian peasant, with addmod).
		var want uint64
		x, y := a, b
		for y > 0 {
			if y&1 == 1 {
				want = addmod(want, x)
			}
			x = addmod(x, x)
			y >>= 1
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFullPrecisionNoCollisionsOnSmallUniverse(t *testing.T) {
	// All 2^14 strings of length <=13: distinct Out values at full width.
	h := New(77, 0)
	seen := map[uint64]bool{}
	count := 0
	for n := 0; n <= 13; n++ {
		for v := uint64(0); v < 1<<uint(n); v++ {
			o := h.HashOut(bitstr.FromUint64(v, n))
			if seen[o] {
				t.Fatalf("collision at full width on len-%d value %d", n, v)
			}
			seen[o] = true
			count++
		}
	}
	if count != 1<<14-1 {
		t.Fatalf("enumerated %d strings", count)
	}
}

func BenchmarkHash4KBits(b *testing.B) {
	h := New(1, 0)
	s := bitstr.MustParse(strings.Repeat("0110", 1024))
	b.SetBytes(int64(s.Len() / 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Hash(s)
	}
}

func BenchmarkCombine(b *testing.B) {
	h := New(1, 0)
	v := h.Hash(bitstr.MustParse(strings.Repeat("01", 500)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v = h.Combine(v, v)
		v.Len &= 0xffff // keep powN in a sane range
	}
}

func TestShrinkInvertsExtend(t *testing.T) {
	h := New(31, 0)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randomBits(r, 200), randomBits(r, 200)
		ab := h.Extend(h.Hash(a), b)
		got := h.Shrink(ab, b)
		if got != h.Hash(a) {
			t.Fatalf("Shrink(Extend(a,b), b) != Hash(a): A=%q B=%q", a, b)
		}
	}
}

func TestShrinkEmptySuffix(t *testing.T) {
	h := New(33, 0)
	v := h.Hash(bitstr.MustParse("0110"))
	if got := h.Shrink(v, bitstr.Empty); got != v {
		t.Fatalf("Shrink by empty changed value")
	}
}

func TestShrinkWholeString(t *testing.T) {
	h := New(35, 0)
	s := bitstr.MustParse("010111010001")
	if got := h.Shrink(h.Hash(s), s); got != EmptyValue() {
		t.Fatalf("Shrink to empty = %+v", got)
	}
}

func TestShrinkPanicsOnOversizedSuffix(t *testing.T) {
	h := New(37, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.Shrink(h.Hash(bitstr.MustParse("01")), bitstr.MustParse("011"))
}
