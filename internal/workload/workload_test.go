package workload

import (
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

func TestDeterminism(t *testing.T) {
	a := New(42).FixedLen(50, 128)
	b := New(42).FixedLen(50, 128)
	for i := range a {
		if !bitstr.Equal(a[i], b[i]) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := New(43).FixedLen(50, 128)
	same := 0
	for i := range a {
		if bitstr.Equal(a[i], c[i]) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds suspiciously similar: %d/50", same)
	}
}

func TestFixedLen(t *testing.T) {
	for _, bits := range []int{1, 63, 64, 65, 300} {
		for _, k := range New(1).FixedLen(20, bits) {
			if k.Len() != bits {
				t.Fatalf("FixedLen(%d) produced %d bits", bits, k.Len())
			}
		}
	}
}

func TestVarLenRange(t *testing.T) {
	min, max := 10, 200
	sawShort, sawLong := false, false
	for _, k := range New(2).VarLen(500, min, max) {
		if k.Len() < min || k.Len() > max {
			t.Fatalf("VarLen out of range: %d", k.Len())
		}
		if k.Len() < min+30 {
			sawShort = true
		}
		if k.Len() > max-30 {
			sawLong = true
		}
	}
	if !sawShort || !sawLong {
		t.Fatal("VarLen not spread across the range")
	}
}

func TestSharedPrefix(t *testing.T) {
	keys := New(3).SharedPrefix(100, 256, 64)
	for i := 1; i < len(keys); i++ {
		if bitstr.LCP(keys[0], keys[i]) < 256 {
			t.Fatalf("key %d does not share the 256-bit prefix", i)
		}
		if keys[i].Len() != 320 {
			t.Fatalf("key %d length %d", i, keys[i].Len())
		}
	}
}

func TestPrefixChain(t *testing.T) {
	keys := New(4).PrefixChain(50, 8)
	for i := 1; i < len(keys); i++ {
		if !keys[i].HasPrefix(keys[i-1]) {
			t.Fatalf("chain broken at %d", i)
		}
		if keys[i].Len() != (i+1)*8 {
			t.Fatalf("chain length %d at %d", keys[i].Len(), i)
		}
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	g := New(5)
	keys := g.FixedLen(1000, 64)
	qs := g.Zipf(keys, 5000, 2.5)
	counts := map[string]int{}
	for _, q := range qs {
		counts[q.String()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < len(qs)/10 {
		t.Fatalf("Zipf(2.5) top key only %d/%d", max, len(qs))
	}
	// Every query must be a stored key.
	stored := map[string]bool{}
	for _, k := range keys {
		stored[k.String()] = true
	}
	for _, q := range qs {
		if !stored[q.String()] {
			t.Fatal("Zipf produced an unstored query")
		}
	}
}

func TestPointAttack(t *testing.T) {
	g := New(6)
	keys := g.FixedLen(100, 32)
	qs := g.PointAttack(keys, 50)
	for _, q := range qs {
		if !bitstr.Equal(q, qs[0]) {
			t.Fatal("PointAttack not constant")
		}
	}
}

func TestRangeAttackNarrow(t *testing.T) {
	g := New(7)
	keys := g.FixedLen(500, 64)
	qs := g.RangeAttack(keys, 200, 32)
	// All queries share the 64-bit base prefix → extremely narrow range.
	for i := 1; i < len(qs); i++ {
		if bitstr.LCP(qs[0], qs[i]) < 64 {
			t.Fatal("RangeAttack queries not in a narrow range")
		}
	}
}

func TestPrefixQueriesMixed(t *testing.T) {
	g := New(8)
	keys := g.FixedLen(200, 96)
	qs := g.PrefixQueries(keys, 500, 16)
	if len(qs) != 500 {
		t.Fatalf("got %d queries", len(qs))
	}
	lens := map[int]bool{}
	for _, q := range qs {
		lens[q.Len()] = true
	}
	if len(lens) < 20 {
		t.Fatalf("query lengths not diverse: %d distinct", len(lens))
	}
}

func TestUintsWidth(t *testing.T) {
	for _, w := range []int{8, 32, 64} {
		for _, v := range New(9).Uints(100, w) {
			if w < 64 && v >= 1<<uint(w) {
				t.Fatalf("Uints(%d) produced %d", w, v)
			}
		}
	}
}

func TestIPv4Prefixes(t *testing.T) {
	ks := New(10).IPv4Prefixes(1000)
	short, mid := 0, 0
	for _, k := range ks {
		if k.Len() < 8 || k.Len() > 32 {
			t.Fatalf("prefix length %d", k.Len())
		}
		if k.Len() < 16 {
			short++
		}
		if k.Len() >= 20 && k.Len() <= 24 {
			mid++
		}
	}
	if mid < short {
		t.Fatal("length mix not routing-table-like")
	}
}

func TestKeyStream(t *testing.T) {
	keys := New(1).FixedLen(200, 64)
	// Determinism: equal inputs replay identically.
	a, b := NewKeyStream(keys, 9, 1.0), NewKeyStream(keys, 9, 1.0)
	for i := 0; i < 500; i++ {
		if !bitstr.Equal(a.Next(), b.Next()) {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
	// Zipf(1.0) clamps rather than panicking and concentrates mass:
	// the hottest key should dominate a uniform stream's hottest key.
	count := func(s *KeyStream, n int) int {
		freq := map[string]int{}
		max := 0
		for i := 0; i < n; i++ {
			k := s.Next().String()
			freq[k]++
			if freq[k] > max {
				max = freq[k]
			}
		}
		return max
	}
	zhot := count(NewKeyStream(keys, 3, 1.0), 4000)
	uhot := count(NewKeyStream(keys, 3, 0), 4000)
	if zhot < 3*uhot {
		t.Fatalf("Zipf stream not skewed: hottest %d vs uniform hottest %d", zhot, uhot)
	}
}

func TestHotRangeStreamDeterministicAndRotating(t *testing.T) {
	g := New(4)
	keys := g.FixedLen(1000, 64)

	// Identical inputs replay identically.
	a := NewHotRangeStream(keys, 9, 0.9, 8, 100)
	b := NewHotRangeStream(keys, 9, 0.9, 8, 100)
	for i := 0; i < 500; i++ {
		if !bitstr.Equal(a.Next(), b.Next()) {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	if a.hot.Load() != b.hot.Load() {
		t.Fatalf("hot ranges diverged: %d vs %d", a.hot.Load(), b.hot.Load())
	}

	// The hotspot rotates once per period, wrapping around.
	c := NewHotRangeStream(keys, 9, 0.5, 4, 10)
	if c.hot.Load() != 0 {
		t.Fatalf("initial hot range = %d, want 0", c.hot.Load())
	}
	for i := 0; i < 10; i++ {
		c.Next()
	}
	if c.hot.Load() != 1 {
		t.Fatalf("hot range after one period = %d, want 1", c.hot.Load())
	}
	for i := 0; i < 30; i++ {
		c.Next()
	}
	if c.hot.Load() != 0 {
		t.Fatalf("hot range after four periods = %d, want 0 (wrapped)", c.hot.Load())
	}
}

func TestHotRangeStreamSkew(t *testing.T) {
	g := New(5)
	keys := g.FixedLen(800, 64)
	hs := NewHotRangeStream(keys, 3, 0.9, 8, 0) // manual shifting only
	shift := func(n int) {
		for i := 0; i < n; i++ {
			hs.Shift()
		}
	}
	shift(5)
	hot := map[string]bool{}
	lo, hi := hs.rangeBounds(5)
	for _, k := range hs.sorted[lo:hi] {
		hot[k.String()] = true
	}
	if len(hot) != 100 {
		t.Fatalf("hot range holds %d keys, want 100", len(hot))
	}
	const draws = 5000
	inHot := 0
	for i := 0; i < draws; i++ {
		if hot[hs.Next().String()] {
			inHot++
		}
	}
	// Expect hotFrac + (1-hotFrac)/ranges ≈ 0.9125 of draws in the hot
	// range; accept a generous tolerance.
	frac := float64(inHot) / draws
	if frac < 0.85 || frac > 0.97 {
		t.Fatalf("hot-range fraction = %.3f, want ≈0.91", frac)
	}
	// Shift moves the mass: after shifting to range 2, the old range
	// goes cold.
	shift(5)
	inOld := 0
	for i := 0; i < draws; i++ {
		if hot[hs.Next().String()] {
			inOld++
		}
	}
	if frac := float64(inOld) / draws; frac > 0.05 {
		t.Fatalf("old hot range still draws %.3f of traffic after Shift", frac)
	}
}
