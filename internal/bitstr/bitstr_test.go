package bitstr

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// refString is a naive reference implementation backed by a plain string
// of '0'/'1' characters, used as the oracle for property tests.
type refString string

func (r refString) toBitstr() String { return MustParse(string(r)) }

// fromBits builds a bit string from 0/1 values, bit 0 first.
func fromBits(b []byte) String {
	c := make([]byte, len(b))
	for i, v := range b {
		c[i] = '0' + v&1
	}
	return MustParse(string(c))
}

// argSorted returns a copy of ss in ArgSort's order.
func argSorted(ss []String, procs int) []String {
	idx := make([]int, len(ss))
	for i := range idx {
		idx[i] = i
	}
	ArgSort(ss, idx, procs)
	out := make([]String, len(ss))
	for i, j := range idx {
		out[i] = ss[j]
	}
	return out
}

func randomRef(r *rand.Rand, maxLen int) refString {
	n := r.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte('0' + byte(r.Intn(2)))
	}
	return refString(b.String())
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"", "0", "1", "01", "00001101", strings.Repeat("10", 100)}
	for _, c := range cases {
		s, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if s.String() != c {
			t.Errorf("round trip %q -> %q", c, s.String())
		}
		if s.Len() != len(c) {
			t.Errorf("Len(%q) = %d, want %d", c, s.Len(), len(c))
		}
	}
}

func TestParseRejectsBadChars(t *testing.T) {
	for _, bad := range []string{"2", "0a1", "01 ", "x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestBitAt(t *testing.T) {
	s := MustParse("0110")
	want := []byte{0, 1, 1, 0}
	for i, w := range want {
		if got := s.BitAt(i); got != w {
			t.Errorf("BitAt(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestBitAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BitAt out of range did not panic")
		}
	}()
	MustParse("01").BitAt(2)
}

func TestSliceAcrossWords(t *testing.T) {
	// Build a 200-bit string and slice every (from, to) pair on a grid.
	r := rand.New(rand.NewSource(1))
	ref := randomRef(r, 0)
	for len(ref) < 200 {
		ref += refString("01101")[:1+r.Intn(4)]
	}
	s := ref.toBitstr()
	for from := 0; from <= s.Len(); from += 7 {
		for to := from; to <= s.Len(); to += 13 {
			got := s.Slice(from, to).String()
			want := string(ref[from:to])
			if got != want {
				t.Fatalf("Slice(%d,%d) = %q, want %q", from, to, got, want)
			}
		}
	}
}

func TestConcatProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randomRef(r, 150), randomRef(r, 150)
		got := a.toBitstr().Concat(b.toBitstr()).String()
		if got != string(a)+string(b) {
			t.Fatalf("Concat(%q,%q) = %q", a, b, got)
		}
	}
}

func TestSliceConcatInverse(t *testing.T) {
	f := func(bitsSrc []bool, cutSeed uint8) bool {
		b := make([]byte, len(bitsSrc))
		for i, v := range bitsSrc {
			if v {
				b[i] = 1
			}
		}
		s := fromBits(b)
		if s.Len() == 0 {
			return true
		}
		cut := int(cutSeed) % (s.Len() + 1)
		return Equal(s.Prefix(cut).Concat(s.Suffix(cut)), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLCPAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	refLCP := func(a, b refString) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}
	for i := 0; i < 1000; i++ {
		a, b := randomRef(r, 300), randomRef(r, 300)
		// Bias towards long shared prefixes half the time.
		if i%2 == 0 {
			pre := randomRef(r, 200)
			a, b = pre+a, pre+b
		}
		if got, want := LCP(a.toBitstr(), b.toBitstr()), refLCP(a, b); got != want {
			t.Fatalf("LCP(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestCompareAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	refCompare := func(a, b refString) int {
		// '0' < '1' in ASCII, and Go string comparison puts prefixes first,
		// exactly our convention.
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	for i := 0; i < 2000; i++ {
		a, b := randomRef(r, 100), randomRef(r, 100)
		if i%3 == 0 {
			pre := randomRef(r, 80)
			a, b = pre+a, pre+b
		}
		if i%7 == 0 {
			b = a // force equality and prefix cases
			if len(b) > 0 && r.Intn(2) == 0 {
				b = b[:r.Intn(len(b))]
			}
		}
		if got, want := Compare(a.toBitstr(), b.toBitstr()), refCompare(a, b); got != want {
			t.Fatalf("Compare(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestHasPrefix(t *testing.T) {
	s := MustParse("101001")
	for i := 0; i <= s.Len(); i++ {
		if !s.HasPrefix(s.Prefix(i)) {
			t.Errorf("HasPrefix of own prefix length %d = false", i)
		}
	}
	if s.HasPrefix(MustParse("1011")) {
		t.Error("HasPrefix(1011) = true, want false")
	}
	if s.HasPrefix(MustParse("1010011")) {
		t.Error("HasPrefix longer string = true, want false")
	}
}

func TestFromBytesOrderMatchesBytesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a := make([]byte, r.Intn(20))
		b := make([]byte, r.Intn(20))
		r.Read(a)
		r.Read(b)
		got := Compare(FromBytes(a), FromBytes(b))
		want := bytes.Compare(a, b)
		if got != want {
			t.Fatalf("Compare(FromBytes(%x), FromBytes(%x)) = %d, want %d", a, b, got, want)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(40))
		r.Read(b)
		if got := FromBytes(b).Bytes(); !bytes.Equal(got, b) {
			t.Fatalf("Bytes round trip: %x -> %x", b, got)
		}
	}
}

func TestFromUint64OrderMatchesIntegerOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		n := 1 + r.Intn(64)
		mask := ^uint64(0)
		if n < 64 {
			mask = (1 << uint(n)) - 1
		}
		a, b := r.Uint64()&mask, r.Uint64()&mask
		got := Compare(FromUint64(a, n), FromUint64(b, n))
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		if got != want {
			t.Fatalf("n=%d a=%d b=%d Compare=%d want %d", n, a, b, got, want)
		}
	}
}

func TestUint64RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		n := 1 + r.Intn(64)
		mask := ^uint64(0)
		if n < 64 {
			mask = (1 << uint(n)) - 1
		}
		v := r.Uint64() & mask
		if got := FromUint64(v, n).Uint64(); got != v {
			t.Fatalf("Uint64 round trip n=%d: %d -> %d", n, v, got)
		}
	}
}

func TestPadTo(t *testing.T) {
	s := MustParse("01")
	if got := s.PadTo(9, 0).String(); got != "010000000" {
		t.Errorf("PadTo(9,0) = %q", got)
	}
	if got := s.PadTo(9, 1).String(); got != "011111111" {
		t.Errorf("PadTo(9,1) = %q", got)
	}
	// Across a word boundary.
	long := MustParse(strings.Repeat("0", 60))
	if got := long.PadTo(130, 1).String(); got != strings.Repeat("0", 60)+strings.Repeat("1", 70) {
		t.Errorf("PadTo across words wrong: %q", got)
	}
	if got := s.PadTo(1, 1); !Equal(got, s) {
		t.Errorf("PadTo shorter changed string: %q", got)
	}
}

func TestWordsAccounting(t *testing.T) {
	cases := []struct {
		n, words int
	}{{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}}
	for _, c := range cases {
		s := MustParse(strings.Repeat("1", c.n))
		if s.Words() != c.words {
			t.Errorf("Words(len %d) = %d, want %d", c.n, s.Words(), c.words)
		}
		if s.SizeWords() != c.words+1 {
			t.Errorf("SizeWords(len %d) = %d, want %d", c.n, s.SizeWords(), c.words+1)
		}
	}
}

func TestSortMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(300)
		refs := make([]refString, n)
		for i := range refs {
			refs[i] = randomRef(r, 90)
			if i%4 == 0 && i > 0 {
				refs[i] = refs[i-1] + randomRef(r, 10) // shared prefixes & duplicates
			}
		}
		ss := make([]String, n)
		for i, rs := range refs {
			ss[i] = rs.toBitstr()
		}
		ss = argSorted(ss, 1)
		sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
		for i := range ss {
			if ss[i].String() != string(refs[i]) {
				t.Fatalf("trial %d: ArgSort mismatch at %d: %q vs %q", trial, i, ss[i], refs[i])
			}
		}
	}
}

func TestSortLongSharedPrefixes(t *testing.T) {
	// Adversarial: many strings sharing a >64-bit prefix, differing only in
	// length — exercises the exhausted-key path of the radix sort.
	base := strings.Repeat("1", 100)
	var ss []String
	var refs []string
	for i := 0; i <= 64; i++ {
		refs = append(refs, base[:30+i])
		ss = append(ss, MustParse(base[:30+i]))
	}
	// And shuffled duplicates.
	ss = append(ss, ss...)
	refs = append(refs, refs...)
	rand.New(rand.NewSource(11)).Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
	ss = argSorted(ss, 1)
	sort.Strings(refs)
	for i := range ss {
		if ss[i].String() != refs[i] {
			t.Fatalf("mismatch at %d: %q vs %q", i, ss[i], refs[i])
		}
	}
}

func TestImmutability(t *testing.T) {
	s := MustParse("0101")
	_ = s.Concat(MustParse("1111"))
	_ = s.PadTo(10, 1)
	_ = s.Slice(1, 3)
	if s.String() != "0101" {
		t.Fatalf("receiver mutated: %q", s)
	}
}

func BenchmarkLCPLong(b *testing.B) {
	s := MustParse(strings.Repeat("01", 4096))
	t2 := s.Concat(MustParse("1"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LCP(s, t2)
	}
}

func BenchmarkSort1k(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	base := make([]String, 1024)
	for i := range base {
		base[i] = randomRef(r, 256).toBitstr()
	}
	b.ReportAllocs()
	b.ResetTimer()
	idx := make([]int, len(base))
	for i := 0; i < b.N; i++ {
		for j := range idx {
			idx[j] = j
		}
		ArgSort(base, idx, 1)
	}
}

func TestPrefixIndex(t *testing.T) {
	// Round trip: FromUint64(v, bits).PrefixIndex(bits) == v.
	for _, bits := range []int{1, 3, 8, 13} {
		for v := 0; v < 1<<uint(bits); v += 1 + v/7 {
			if got := FromUint64(uint64(v), bits).PrefixIndex(bits); got != v {
				t.Fatalf("PrefixIndex(FromUint64(%d,%d)) = %d", v, bits, got)
			}
		}
	}
	// Short strings pad zeros on the right: "1" at 3 bits indexes 0b100.
	if got := MustParse("1").PrefixIndex(3); got != 4 {
		t.Fatalf("PrefixIndex(1, 3) = %d, want 4", got)
	}
	if got := Empty.PrefixIndex(5); got != 0 {
		t.Fatalf("PrefixIndex(empty, 5) = %d, want 0", got)
	}
	// Longer strings use only their first bits bits.
	if got := MustParse("1100101").PrefixIndex(3); got != 6 {
		t.Fatalf("PrefixIndex(1100101, 3) = %d, want 6", got)
	}
	// Numeric order of indexes agrees with lexicographic key order, and
	// extensions of s land in [idx, idx + 2^(bits-len)).
	r := rand.New(rand.NewSource(9))
	const bits = 6
	for i := 0; i < 200; i++ {
		a := randomRef(r, 1+r.Intn(20)).toBitstr()
		b := randomRef(r, 1+r.Intn(20)).toBitstr()
		ia, ib := a.PrefixIndex(bits), b.PrefixIndex(bits)
		if Compare(a, b) < 0 && ia > ib {
			t.Fatalf("order violated: %v(%d) < %v(%d)", a, ia, b, ib)
		}
		span := 1
		if a.Len() < bits {
			span = 1 << uint(bits-a.Len())
		}
		ext := a.Concat(randomRef(r, r.Intn(16)).toBitstr())
		if ie := ext.PrefixIndex(bits); ie < ia || ie >= ia+span {
			t.Fatalf("extension index %d outside [%d,%d)", ie, ia, ia+span)
		}
	}
}
