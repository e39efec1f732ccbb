package hvm

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

func randomShortString(r *rand.Rand, w int) bitstr.String {
	n := r.Intn(w)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte('0' + byte(r.Intn(2)))
	}
	return bitstr.MustParse(b.String())
}

// lookupString runs the table's lookup for q and returns the stored
// string it names.
func lookupString(t *remTable, strs []bitstr.String, q bitstr.String) (bitstr.String, bool) {
	id, ok := t.lookup(q.RangeWord(0, q.Len()), q.Len())
	if !ok {
		return bitstr.Empty, false
	}
	return strs[id], true
}

// TestTwoLayerAgainstBruteForce holds the table to the §4.4.2 contract
// while the stored set churns (the table is rebuilt after each change, as
// a region's class index is): the result is a stored string achieving
// the maximum LCP with the query, and no stored string with the same LCP
// is a proper prefix of it — that would name a non-direct descendant
// instead of a direct child.
func TestTwoLayerAgainstBruteForce(t *testing.T) {
	for _, w := range []int{4, 8, 16, 64} {
		r := rand.New(rand.NewSource(int64(w)))
		stored := map[string]bitstr.String{}
		var strs []bitstr.String
		var tbl *remTable
		for step := 0; step < 2500; step++ {
			switch r.Intn(5) {
			case 0, 1:
				s := randomShortString(r, w)
				stored[s.String()] = s
				tbl = nil
			case 2:
				delete(stored, randomShortString(r, w).String())
				tbl = nil
			default:
				if tbl == nil {
					strs = strs[:0]
					for _, s := range stored {
						strs = append(strs, s)
					}
					tbl = newRemTable(w, strs)
				}
				q := randomShortString(r, w)
				res, ok := lookupString(tbl, strs, q)
				if ok != (len(stored) > 0) {
					t.Fatalf("w=%d step %d: lookup(%q) ok=%v over %d strings", w, step, q, ok, len(stored))
				}
				if !ok {
					continue
				}
				best := -1
				for _, s := range strs {
					best = max(best, bitstr.LCP(s, q))
				}
				lcp := bitstr.LCP(res, q)
				if lcp != best {
					t.Fatalf("w=%d step %d: lookup(%q) = %q with lcp %d, max is %d", w, step, q, res, lcp, best)
				}
				for _, s := range strs {
					if s.Len() < res.Len() && res.HasPrefix(s) && bitstr.LCP(s, q) == lcp {
						t.Fatalf("w=%d step %d: lookup(%q) = %q has a tied stored proper prefix %q", w, step, q, res, s)
					}
				}
			}
		}
	}
}

func TestTwoLayerFigure5(t *testing.T) {
	// Figure 5's worked example uses w = 3: padded integers with validity
	// vectors over the block roots' remainders. With {"0","01"} stored,
	// querying "01" returns "01" and querying "0" returns "0" itself.
	strs := []bitstr.String{bitstr.MustParse("0"), bitstr.MustParse("01")}
	tbl := newRemTable(3, strs)
	for _, c := range []struct{ q, want string }{
		{"01", "01"},
		{"0", "0"},
		// LCP("0") = LCP("01") = 1: the tie goes to the shortest, "0" —
		// the direct-child guarantee of §4.4.2.
		{"00", "0"},
	} {
		if res, ok := lookupString(tbl, strs, bitstr.MustParse(c.q)); !ok || res.String() != c.want {
			t.Fatalf("lookup(%s) = %q, %v; want %q", c.q, res, ok, c.want)
		}
	}
}

func TestTwoLayerEmptyStringElement(t *testing.T) {
	strs := []bitstr.String{bitstr.Empty}
	if res, ok := lookupString(newRemTable(8, strs), strs, bitstr.MustParse("1010101")); !ok || res.Len() != 0 {
		t.Fatalf("empty-string element not found: %q %v", res, ok)
	}
}

func TestTwoLayerEmptyIndex(t *testing.T) {
	if _, ok := newRemTable(8, nil).lookup(0b101, 3); ok {
		t.Fatal("lookup on empty table succeeded")
	}
}

func TestTwoLayerDuplicateLastWins(t *testing.T) {
	strs := []bitstr.String{bitstr.MustParse("110"), bitstr.MustParse("0"), bitstr.MustParse("110")}
	if id, ok := newRemTable(8, strs).lookup(strs[0].RangeWord(0, 3), 3); !ok || id != 2 {
		t.Fatalf("lookup(110) = id %d, %v; want the last copy, id 2", id, ok)
	}
}

func TestTwoLayerOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for |S| >= w")
		}
	}()
	newRemTable(4, []bitstr.String{bitstr.MustParse("1111")})
}

func TestPickValid(t *testing.T) {
	cases := []struct {
		valid       uint64
		l           int
		length, lcp int
	}{
		{0b0100, 2, 2, 2}, // exact
		{0b0100, 1, 2, 1}, // shortest ≥ l
		{0b0100, 3, 2, 2}, // longest < l
		{0b1010, 2, 3, 2}, // 3 ≥ 2 beats 1 < 2
		{0b0010, 0, 1, 0}, // only longer
		{0, 3, -1, -1},    // nothing stored
		{0b1, 0, 0, 0},    // empty string stored
	}
	for _, c := range cases {
		length, lcp := pickValid(c.valid, c.l)
		if length != c.length || lcp != c.lcp {
			t.Errorf("pickValid(%b,%d) = (%d,%d), want (%d,%d)", c.valid, c.l, length, lcp, c.length, c.lcp)
		}
	}
}

func TestLcpInt(t *testing.T) {
	// lcpInt takes right-aligned w-bit integers (as padWord yields).
	if got := lcpInt(0b101, 0b100, 3); got != 2 {
		t.Fatalf("lcpInt(101,100) = %d, want 2", got)
	}
	if got := lcpInt(0b101, 0b101, 3); got != 3 {
		t.Fatalf("lcpInt equal = %d, want 3", got)
	}
	if got := lcpInt(0b001, 0b101, 3); got != 0 {
		t.Fatalf("lcpInt(001,101) = %d, want 0", got)
	}
}
