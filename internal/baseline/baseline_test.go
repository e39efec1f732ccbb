package baseline

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

func randomKey(r *rand.Rand, maxLen int) bitstr.String {
	n := r.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte('0' + byte(r.Intn(2)))
	}
	return bitstr.MustParse(b.String())
}

func makeKeys(r *rand.Rand, n, maxLen int) ([]bitstr.String, []uint64) {
	keys := make([]bitstr.String, n)
	values := make([]uint64, n)
	for i := range keys {
		keys[i] = randomKey(r, maxLen)
		if i > 0 && r.Intn(3) == 0 {
			keys[i] = keys[r.Intn(i)].Concat(randomKey(r, maxLen/4))
		}
		values[i] = uint64(i)
	}
	return keys, values
}

func oracleOf(keys []bitstr.String, values []uint64) *trie.Trie {
	o := trie.New()
	for i, k := range keys {
		o.Insert(k, values[i])
	}
	return o
}

func TestDistRadixLCPMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	keys, values := makeKeys(r, 200, 80)
	oracle := oracleOf(keys, values)
	for _, span := range []int{1, 4, 8} {
		sys := pim.NewSystem(8, pim.WithSeed(7))
		d := NewDistRadix(sys, span, keys, values)
		var queries []bitstr.String
		for i := 0; i < 150; i++ {
			switch i % 3 {
			case 0:
				queries = append(queries, randomKey(r, 100))
			case 1:
				k := keys[r.Intn(len(keys))]
				queries = append(queries, k.Prefix(r.Intn(k.Len()+1)))
			default:
				queries = append(queries, keys[r.Intn(len(keys))].Concat(randomKey(r, 20)))
			}
		}
		got := d.LCP(queries)
		for i, q := range queries {
			if want := oracle.LCPLen(q); got[i] != want {
				t.Fatalf("span %d: LCP(%q) = %d, want %d", span, q, got[i], want)
			}
		}
	}
}

func TestDistRadixInsert(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	base, baseV := makeKeys(r, 100, 60)
	oracle := oracleOf(base, baseV)
	sys := pim.NewSystem(4, pim.WithSeed(3))
	d := NewDistRadix(sys, 4, base, baseV)
	more, moreV := makeKeys(r, 100, 60)
	d.Insert(more, moreV)
	for i, k := range more {
		oracle.Insert(k, moreV[i])
	}
	if got := len(d.Subtree(bitstr.Empty)); got != oracle.KeyCount() {
		t.Fatalf("%d keys stored, want %d", got, oracle.KeyCount())
	}
	queries := append(append([]bitstr.String{}, base[:50]...), more[:50]...)
	got := d.LCP(queries)
	for i, q := range queries {
		if want := oracle.LCPLen(q); got[i] != want {
			t.Fatalf("LCP(%q) = %d, want %d", q, got[i], want)
		}
	}
}

func TestDistRadixRoundsScaleWithKeyLength(t *testing.T) {
	// The Table 1 shape: rounds per LCP batch grow with l/s.
	r := rand.New(rand.NewSource(3))
	rounds := map[int]int64{}
	for _, l := range []int{64, 512} {
		sys := pim.NewSystem(8, pim.WithSeed(5))
		keys := make([]bitstr.String, 100)
		values := make([]uint64, 100)
		for i := range keys {
			b := make([]byte, l)
			for j := range b {
				b[j] = '0' + byte(r.Intn(2))
			}
			keys[i] = bitstr.MustParse(string(b))
		}
		d := NewDistRadix(sys, 8, keys, values)
		before := sys.Metrics()
		d.LCP(keys[:50])
		rounds[l] = sys.Metrics().Sub(before).Rounds
	}
	if rounds[512] < 4*rounds[64] {
		t.Fatalf("rounds did not scale with l: %v", rounds)
	}
}

func TestDistXFastMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sys := pim.NewSystem(8, pim.WithSeed(9))
	width := 32
	keys := make([]uint64, 300)
	values := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(r.Uint32())
		values[i] = uint64(i)
	}
	d := NewDistXFast(sys, width, keys, values)
	// Reference: a host trie over the fixed-width bit strings.
	oracle := trie.New()
	for i, k := range keys {
		oracle.Insert(bitstr.FromUint64(k, width), values[i])
	}
	queries := make([]uint64, 200)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = keys[r.Intn(len(keys))] ^ uint64(1)<<uint(r.Intn(width))
		} else {
			queries[i] = uint64(r.Uint32())
		}
	}
	got := d.LongestPrefixLevel(queries)
	for i, q := range queries {
		if want := oracle.LCPLen(bitstr.FromUint64(q, width)); got[i] != want {
			t.Fatalf("LPL(%d) = %d, want %d", q, got[i], want)
		}
	}
	member := d.Member(keys[:50])
	for i, ok := range member {
		if !ok {
			t.Fatalf("Member(%d) = false", keys[i])
		}
	}
}

func TestDistXFastRoundsLogarithmic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sys := pim.NewSystem(8, pim.WithSeed(13))
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	d := NewDistXFast(sys, 64, keys, make([]uint64, len(keys)))
	before := sys.Metrics()
	d.LongestPrefixLevel(keys[:100])
	rounds := sys.Metrics().Sub(before).Rounds
	if rounds > 8 { // ceil(log2 65) = 7 search rounds
		t.Fatalf("LPL used %d rounds", rounds)
	}
}

func TestDistXFastSpacePerKeyScalesWithWidth(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	space := map[int]int{}
	for _, width := range []int{16, 64} {
		sys := pim.NewSystem(4, pim.WithSeed(15))
		keys := make([]uint64, 200)
		for i := range keys {
			keys[i] = r.Uint64() & (1<<uint(width) - 1)
		}
		d := NewDistXFast(sys, width, keys, make([]uint64, len(keys)))
		space[width] = d.SpaceWords()
	}
	if space[64] < 2*space[16] {
		t.Fatalf("space did not scale with width: %v", space)
	}
}

func TestRangePartMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	keys, values := makeKeys(r, 300, 70)
	oracle := oracleOf(keys, values)
	sys := pim.NewSystem(8, pim.WithSeed(17))
	rp := NewRangePart(sys, keys, values)
	var queries []bitstr.String
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0:
			queries = append(queries, randomKey(r, 90))
		case 1:
			k := keys[r.Intn(len(keys))]
			queries = append(queries, k.Prefix(r.Intn(k.Len()+1)))
		default:
			queries = append(queries, keys[r.Intn(len(keys))])
		}
	}
	got := rp.LCP(queries)
	for i, q := range queries {
		if want := oracle.LCPLen(q); got[i] != want {
			t.Fatalf("LCP(%q) = %d, want %d", q, got[i], want)
		}
	}
}

func TestRangePartInsert(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	keys, values := makeKeys(r, 200, 60)
	oracle := oracleOf(keys, values)
	sys := pim.NewSystem(4, pim.WithSeed(19))
	rp := NewRangePart(sys, keys, values)
	more, moreV := makeKeys(r, 100, 60)
	rp.Insert(more, moreV)
	for i := range more {
		oracle.Insert(more[i], moreV[i])
	}
	q := append(append([]bitstr.String{}, keys[:40]...), more[:40]...)
	lcp := rp.LCP(q)
	for i, k := range q {
		if want := oracle.LCPLen(k); lcp[i] != want {
			t.Fatalf("post-insert LCP(%q) = %d, want %d", k, lcp[i], want)
		}
	}
}

func TestRangePartSkewCollapses(t *testing.T) {
	// A Zipf-free demonstration of §3.2's flaw: all queries in one range
	// produce balance ≈ P while uniform queries stay near 1.
	r := rand.New(rand.NewSource(10))
	keys, values := makeKeys(r, 800, 48)
	sys := pim.NewSystem(16, pim.WithSeed(21))
	rp := NewRangePart(sys, keys, values)

	before := sys.Metrics()
	uniform := make([]bitstr.String, 400)
	for i := range uniform {
		uniform[i] = randomKey(r, 48)
	}
	rp.LCP(uniform)
	balUniform := sys.Metrics().Sub(before).IOBalance()

	before = sys.Metrics()
	// Skew: every query equals one stored key.
	skewed := make([]bitstr.String, 400)
	for i := range skewed {
		skewed[i] = keys[17]
	}
	rp.LCP(skewed)
	balSkew := sys.Metrics().Sub(before).IOBalance()

	if balSkew < 3*balUniform {
		t.Fatalf("skew did not collapse range partitioning: uniform %.2f, skew %.2f", balUniform, balSkew)
	}
}

func TestDistRadixSubtreeMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	keys, values := makeKeys(r, 200, 60)
	oracle := oracleOf(keys, values)
	sys := pim.NewSystem(8, pim.WithSeed(23))
	d := NewDistRadix(sys, 8, keys, values)
	prefixes := []bitstr.String{bitstr.Empty}
	for i := 0; i < 30; i++ {
		k := keys[r.Intn(len(keys))]
		prefixes = append(prefixes, k.Prefix(r.Intn(k.Len()+1)), randomKey(r, 25))
	}
	for _, pre := range prefixes {
		got := d.Subtree(pre)
		want := oracle.SubtreeKeys(pre)
		if len(got) != len(want) {
			t.Fatalf("Subtree(%q): %d results, want %d", pre, len(got), len(want))
		}
		for i := range want {
			if !bitstr.Equal(got[i].Key, want[i].Key) || got[i].Value != want[i].Value {
				t.Fatalf("Subtree(%q)[%d] mismatch", pre, i)
			}
		}
	}
}
