package hvm

// The pivot classes of §4.4.2 ("Efficient HashMatching"): each meta-node
// carries the hash key of its root string's longest w-multiple prefix
// (HashPre) and the sub-word remainder after it (SRem, |SRem| < w); a
// region groups its members by HashPre, and each class answers Figure 5's
// two-layer query over its members' remainders, so a probe touches one
// class per w bits instead of one hash table per bit.
//
// The index is derived state: every membership mutation marks it stale,
// and the next probe that needs it rebuilds it whole. Nothing is ever
// updated in place, so the second layer is a static table — the padded
// remainders sorted once and binary-searched — rather than the paper's
// y-fast trie, whose dynamic O(log w) updates nothing here would use.

import (
	"math/bits"
	"sort"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// pivotClass is one class: its members and the table over their S_rem.
type pivotClass struct {
	rems    *remTable
	members []*MetaNode // a remTable id is a position here
}

// Pivot makes the region's class index current, rebuilding it from the
// members if a mutation occurred since the last build, and returns the
// work that took: r.Len() units for a rebuild, 0 when the index was
// already current. A rebuild writes the region, so callers that probe one
// region from several goroutines make it current first, serially.
func (r *Region) Pivot() int {
	if r.pivot != nil && !r.pivotDirty {
		return 0
	}
	byKey := map[uint64][]*MetaNode{}
	r.Walk(func(n *MetaNode) { byKey[n.HashPre] = append(byKey[n.HashPre], n) })
	px := make(map[uint64]pivotClass, len(byKey))
	var rems []bitstr.String
	for k, members := range byKey {
		rems = rems[:0]
		for _, n := range members {
			rems = append(rems, n.SRem)
		}
		px[k] = pivotClass{rems: newRemTable(bitstr.WordBits, rems), members: members}
	}
	r.pivot, r.pivotDirty = px, false
	return r.Len()
}

// markDirty invalidates the class index; every membership mutation calls
// it.
func (r *Region) markDirty() { r.pivotDirty = true }

// LookupPivot returns, for the class keyed hashPre and a remainder query
// of n < w bits packed in q (bit i at position i), the member whose S_rem
// has the longest LCP with the query, ties going to the shortest — the
// §4.4.2 two-layer contract. It reports false for an empty class. The
// index must be current (see Pivot).
func (r *Region) LookupPivot(hashPre uint64, q uint64, n int) (*MetaNode, bool) {
	cls, ok := r.pivot[hashPre]
	if !ok {
		return nil, false
	}
	id, ok := cls.rems.lookup(q, n)
	if !ok {
		return nil, false
	}
	return cls.members[id], true
}

// remTable is the second layer of §4.4.2 (Figure 5) over a set of bit
// strings, each shorter than w bits. Every string S is padded to two w-bit
// integers, S0 with 0s and S1 with 1s, read most significant bit first; a
// stored string with the longest LCP with a query Q pads next to Q0 or
// Q1 in integer order, so the predecessors and successors of Q0 and Q1
// are the only candidates. Distinct strings can pad to one integer, so
// each padding carries a validity vector: bit ℓ set when a stored string
// of length ℓ pads to it.
type remTable struct {
	w     int
	pads  []uint64 // the distinct paddings, ascending
	valid []uint64 // valid[i] bit ℓ: a stored string of length ℓ pads to pads[i]
	first []int32  // the ids of pads[i]'s strings, shortest first, are ids[first[i]:first[i+1]]
	ids   []int32
}

// newRemTable builds the table over strs; an id is a position in strs,
// and of equal strings the last one's is kept. It panics on a string of w
// bits or more.
func newRemTable(w int, strs []bitstr.String) *remTable {
	if w < 2 || w > bitstr.WordBits {
		panic("hvm: remainder table width out of range")
	}
	type entry struct {
		pad uint64
		n   int
		id  int32
	}
	es := make([]entry, 0, 2*len(strs))
	for i, s := range strs {
		if s.Len() >= w {
			panic("hvm: remainder as long as the table width")
		}
		x := s.RangeWord(0, s.Len())
		es = append(es, entry{padWord(x, s.Len(), 0, w), s.Len(), int32(i)}, entry{padWord(x, s.Len(), 1, w), s.Len(), int32(i)})
	}
	sort.Slice(es, func(a, b int) bool {
		x, y := es[a], es[b]
		if x.pad != y.pad {
			return x.pad < y.pad
		}
		if x.n != y.n {
			return x.n < y.n
		}
		return x.id < y.id
	})
	t := &remTable{w: w}
	for k, e := range es {
		if k+1 < len(es) && es[k+1].pad == e.pad && es[k+1].n == e.n {
			continue // an equal string follows
		}
		if last := len(t.pads) - 1; last < 0 || t.pads[last] != e.pad {
			t.pads = append(t.pads, e.pad)
			t.valid = append(t.valid, 0)
			t.first = append(t.first, int32(len(t.ids)))
		}
		t.valid[len(t.valid)-1] |= 1 << uint(e.n)
		t.ids = append(t.ids, e.id)
	}
	t.first = append(t.first, int32(len(t.ids)))
	return t
}

// lookup answers the §4.4.2 query for the n-bit string packed in q: the id
// of the stored string with the longest LCP with it, ties going to the
// shortest, or false when the table is empty. It binary-searches for Q0
// and Q1, O(log |table|).
func (t *remTable) lookup(q uint64, n int) (int32, bool) {
	if n >= t.w {
		panic("hvm: remainder query as long as the table width")
	}
	q0, q1 := padWord(q, n, 0, t.w), padWord(q, n, 1, t.w)
	best, bestLCP, bestLen := -1, -1, -1
	for _, qp := range [2]uint64{q0, q1} {
		succ := sort.Search(len(t.pads), func(i int) bool { return t.pads[i] >= qp })
		pred := succ - 1 // the largest padding ≤ qp
		if succ < len(t.pads) && t.pads[succ] == qp {
			pred = succ
		}
		for _, i := range [2]int{pred, succ} {
			if i < 0 || i >= len(t.pads) {
				continue
			}
			l := min(max(lcpInt(t.pads[i], q0, t.w), lcpInt(t.pads[i], q1, t.w)), n)
			length, lcp := pickValid(t.valid[i], l)
			if lcp > bestLCP || (lcp == bestLCP && length < bestLen) {
				best, bestLCP, bestLen = i, lcp, length
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	rank := bits.OnesCount64(t.valid[best] & (1<<uint(bestLen) - 1))
	return t.ids[int(t.first[best])+rank], true
}

// padWord pads the n-bit string packed in x (bit i at position i, higher
// positions zero) to w bits with bit b and returns it as a w-bit integer,
// the string's first bit most significant.
func padWord(x uint64, n int, b byte, w int) uint64 {
	if b != 0 {
		x |= ^uint64(0) << uint(n)
	}
	return bits.Reverse64(x) >> uint(bitstr.WordBits-w)
}

// pickValid returns (length, achievedLCP) for the best stored length in
// the validity vector relative to an LCP bound l: a stored prefix of
// length ℓ has LCP min(ℓ, l) with Q, so the best is the shortest ℓ ≥ l
// (LCP l), or failing that the longest ℓ < l (LCP ℓ).
func pickValid(valid uint64, l int) (length, lcp int) {
	geMask := ^uint64(0) << uint(l)
	if up := valid & geMask; up != 0 {
		return bits.TrailingZeros64(up), l
	}
	down := valid &^ geMask
	if down == 0 {
		return -1, -1
	}
	ℓ := 63 - bits.LeadingZeros64(down)
	return ℓ, ℓ
}

// lcpInt returns the LCP in bits of two w-bit integers read MSB-first.
func lcpInt(a, b uint64, w int) int {
	x := (a ^ b) << uint(64-w)
	if x == 0 {
		return w
	}
	return bits.LeadingZeros64(x)
}
