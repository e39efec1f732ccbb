package hashing

import (
	"math/rand"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// TestHashRangeMatchesSlice cross-checks the allocation-free range
// kernels against the Slice-based originals on randomized strings and
// offsets; exact equality is required — Value is a pure function of the
// bit content, so the kernels must be bit-identical.
func TestHashRangeMatchesSlice(t *testing.T) {
	h := New(42, 0)
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 3000; trial++ {
		s := randomBits(r, 300)
		if s.Len() == 0 {
			continue
		}
		from := r.Intn(s.Len() + 1)
		to := from + r.Intn(s.Len()-from+1)
		want := h.Hash(s.Slice(from, to))
		if got := h.HashRange(s, from, to); got != want {
			t.Fatalf("HashRange(%d,%d) of %d bits = %+v, want %+v", from, to, s.Len(), got, want)
		}

		a := Value{H: r.Uint64() % p, Len: r.Intn(1000)}
		if got, want := h.ExtendRange(a, s, from, to), h.Extend(a, s.Slice(from, to)); got != want {
			t.Fatalf("ExtendRange(%d,%d) = %+v, want %+v", from, to, got, want)
		}
	}
}

// TestHashRangeBoundaryOffsets pins the word-geometry corner cases:
// word-aligned ranges, intra-word ranges, ranges straddling word
// boundaries, ranges ending exactly at the string end, and empty ranges.
func TestHashRangeBoundaryOffsets(t *testing.T) {
	h := New(7, 0)
	r := rand.New(rand.NewSource(21))
	s := randomBits(r, 0)
	for s.Len() < 200 {
		s = s.Concat(randomBits(r, 80))
	}
	s = s.Prefix(200)
	cases := [][2]int{
		{0, 0}, {0, 64}, {0, 128}, {64, 128}, {64, 192},
		{0, 200}, {64, 200}, {128, 200}, {199, 200}, {200, 200},
		{1, 63}, {1, 64}, {1, 65}, {63, 64}, {63, 65}, {63, 129},
		{5, 5}, {37, 101}, {127, 129}, {191, 200},
	}
	for _, c := range cases {
		want := h.Hash(s.Slice(c[0], c[1]))
		if got := h.HashRange(s, c[0], c[1]); got != want {
			t.Fatalf("HashRange%v = %+v, want %+v", c, got, want)
		}
	}
}

func TestPrefixHashesMatchesDirect(t *testing.T) {
	h := New(9, 0)
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		s := randomBits(r, 400)
		stride := 1 + r.Intn(80)
		got := h.PrefixHashes(s, stride)
		for i, v := range got {
			if want := h.Hash(s.Prefix(i * stride)); v != want {
				t.Fatalf("PrefixHashes stride=%d entry %d = %+v, want %+v", stride, i, v, want)
			}
		}
	}
}

func BenchmarkHashRange4KBits(b *testing.B) {
	h := New(1, 0)
	r := rand.New(rand.NewSource(2))
	w := make([]uint64, 64)
	for i := range w {
		w[i] = r.Uint64()
	}
	s := bitstr.New(w, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.HashRange(s, 3, 4093)
	}
}
