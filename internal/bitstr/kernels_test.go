package bitstr

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestSortSaturationRegression pins the chunkKey saturation bug: the old
// derived key clamped an all-ones reversed chunk (64 one-bits) to
// 0xFF..FE+1, colliding with the genuinely distinct chunk 0xFF..FE
// (63 ones then a zero), so both string families landed in one equal
// band whose recursion moved to the next word without ever re-comparing
// word 0. With 8 copies of each (16 > insertionCutoff) the bands are
// split apart before any full-Compare fallback can repair them, and the
// family that is lexicographically larger at bit 63 came out first.
func TestSortSaturationRegression(t *testing.T) {
	s1 := MustParse(strings.Repeat("1", 64) + "0")       // word 0 all ones
	s2 := MustParse(strings.Repeat("1", 63) + "0" + "1") // differs at bit 63
	if Compare(s2, s1) >= 0 {
		t.Fatal("test precondition: s2 < s1")
	}
	var ss []String
	for i := 0; i < 8; i++ {
		ss = append(ss, s1, s2)
	}
	ss = argSorted(ss, 1)
	for i := 0; i < 8; i++ {
		if !Equal(ss[i], s2) {
			t.Fatalf("position %d: got %q, want the smaller string %q", i, ss[i], s2)
		}
	}
	for i := 8; i < 16; i++ {
		if !Equal(ss[i], s1) {
			t.Fatalf("position %d: got %q, want the larger string %q", i, ss[i], s1)
		}
	}
}

// decodeFuzzStrings interprets a fuzz payload as a sequence of
// length-prefixed bit strings: one byte of bit length (0..255, up to
// four words, so saturated and multi-word chunks are reachable)
// followed by ceil(n/8) payload bytes, truncated at end of data.
func decodeFuzzStrings(data []byte) []String {
	var ss []String
	for len(data) > 0 {
		n := int(data[0])
		data = data[1:]
		nb := (n + 7) / 8
		if nb > len(data) {
			nb = len(data)
			n = nb * 8
		}
		ss = append(ss, FromBytes(data[:nb]).Prefix(n))
		data = data[nb:]
	}
	return ss
}

// FuzzSort drives ArgSort with arbitrary bit strings, where FuzzArgSort
// draws periodic fills: the sorted order must match the sort.Slice
// reference at every procs value.
func FuzzSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0xa0, 8, 0x55, 0, 9, 0xff, 0x80})
	// The saturation shape: all-ones word vs 63 ones + 0, repeated.
	sat := []byte{65, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00,
		65, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x80}
	var rep []byte
	for i := 0; i < 8; i++ {
		rep = append(rep, sat...)
	}
	f.Add(rep)
	f.Fuzz(func(t *testing.T, data []byte) {
		ss := decodeFuzzStrings(data)
		want := make([]String, len(ss))
		copy(want, ss)
		sort.Slice(want, func(i, j int) bool { return Compare(want[i], want[j]) < 0 })
		for _, procs := range []int{1, 3} {
			got := argSorted(ss, procs)
			for i := range want {
				if !Equal(got[i], want[i]) {
					t.Fatalf("procs %d: ArgSort diverges from reference at %d: %q vs %q", procs, i, got[i], want[i])
				}
			}
		}
	})
}

func TestArgSortMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, procs := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 13, 500, 6000} {
			keys := make([]String, n)
			for i := range keys {
				keys[i] = randomRef(r, 150).toBitstr()
				if i > 0 && i%5 == 0 {
					keys[i] = keys[i-1] // duplicates
				}
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			r.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			ArgSort(keys, idx, procs)

			want := make([]String, n)
			copy(want, keys)
			sort.SliceStable(want, func(a, b int) bool { return Compare(want[a], want[b]) < 0 })
			seen := make([]bool, n)
			for i, j := range idx {
				if j < 0 || j >= n || seen[j] {
					t.Fatalf("procs=%d n=%d: idx is not a permutation", procs, n)
				}
				seen[j] = true
				if !Equal(keys[j], want[i]) {
					t.Fatalf("procs=%d n=%d: rank %d is %q, want %q", procs, n, i, keys[j], want[i])
				}
			}
		}
	}
}

func TestRangeWordMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		s := randomRef(r, 260).toBitstr()
		if s.Len() == 0 {
			continue
		}
		from := r.Intn(s.Len() + 1)
		max := s.Len() - from
		if max > 64 {
			max = 64
		}
		to := from + r.Intn(max+1)
		sl := s.Slice(from, to)
		var want uint64
		if sl.Len() > 0 {
			want = sl.RawWords()[0]
		}
		if got := s.RangeWord(from, to); got != want {
			t.Fatalf("RangeWord(%d,%d) of %d bits = %#x, want %#x", from, to, s.Len(), got, want)
		}
		if !Equal(New([]uint64{s.RangeWord(from, to)}, to-from), sl) {
			t.Fatalf("New(RangeWord(%d,%d)) != Slice", from, to)
		}
	}
	// Boundary shapes: word-aligned, straddling, end-of-string, empty.
	s := MustParse(strings.Repeat("10", 96)) // 192 bits
	for _, c := range [][2]int{{0, 64}, {64, 128}, {128, 192}, {60, 70}, {63, 64}, {64, 65}, {128, 130}, {191, 192}, {192, 192}, {0, 0}, {50, 50}} {
		sl := s.Slice(c[0], c[1])
		var want uint64
		if sl.Len() > 0 {
			want = sl.RawWords()[0]
		}
		if got := s.RangeWord(c[0], c[1]); got != want {
			t.Fatalf("RangeWord%v = %#x, want %#x", c, got, want)
		}
	}
}

func TestLCPRangeMatchesLCP(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		a := randomRef(r, 300).toBitstr()
		b := randomRef(r, 300).toBitstr()
		if trial%3 == 0 { // force long shared runs
			b = a.Prefix(r.Intn(a.Len() + 1)).Concat(b)
		}
		afrom := r.Intn(a.Len() + 1)
		bfrom := r.Intn(b.Len() + 1)
		n := a.Len() - afrom
		if m := b.Len() - bfrom; m < n {
			n = m
		}
		n = r.Intn(n + 1)
		want := LCP(a.Slice(afrom, afrom+n), b.Slice(bfrom, bfrom+n))
		if got := LCPRange(a, afrom, b, bfrom, n); got != want {
			t.Fatalf("LCPRange(%d,%d,n=%d) = %d, want %d", afrom, bfrom, n, got, want)
		}
		if got := EqualRange(a, afrom, b, bfrom, n); got != (want == n) {
			t.Fatalf("EqualRange(%d,%d,n=%d) = %v, want %v", afrom, bfrom, n, got, want == n)
		}
	}
}

// TestUint64MatchesBitReference checks the word-op rewrite of Uint64
// against a bit-by-bit oracle, including strings longer than 64 bits
// (only the first 64 contribute).
func TestUint64MatchesBitReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 1000; trial++ {
		s := randomRef(r, 200).toBitstr()
		n := s.Len()
		if n > 64 {
			n = 64
		}
		var want uint64
		for j := 0; j < n; j++ {
			if s.BitAt(j) != 0 {
				want |= 1 << uint(n-1-j)
			}
		}
		if got := s.Uint64(); got != want {
			t.Fatalf("Uint64 of %d bits = %d, want %d", s.Len(), got, want)
		}
	}
}
