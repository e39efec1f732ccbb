package core

import (
	"math/rand"
	"testing"
)

// TestMetaTableMaxLenExact drives a metaTable through random inserts,
// replaces (same key, new Len), deletes and growth against a map, and
// after every step the depth bound must be the largest Len stored — it
// has to come back down when the deepest entry goes, not ratchet.
func TestMetaTableMaxLenExact(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	tbl := newMetaTable(0)
	ref := map[uint64]int{}
	check := func(step int) {
		t.Helper()
		want := 0
		for _, l := range ref {
			want = max(want, l)
		}
		if tbl.MaxLen() != want || tbl.scanMaxLen() != want || tbl.Len() != len(ref) {
			t.Fatalf("step %d: MaxLen %d (scan %d, %d entries), want %d (%d entries)",
				step, tbl.MaxLen(), tbl.scanMaxLen(), tbl.Len(), want, len(ref))
		}
	}
	check(-1)
	for step := 0; step < 20000; step++ {
		// A small key space forces replaces and deletes of present keys;
		// the Len distribution is mostly shallow with rare deep outliers,
		// so the deepest entry is usually alone at its length.
		h := uint64(r.Intn(300))
		switch r.Intn(3) {
		case 0:
			tbl.Delete(h)
			delete(ref, h)
		default:
			l := r.Intn(20)
			if r.Intn(10) == 0 {
				l = r.Intn(2000)
			}
			tbl.Put(h, masterEntry{Len: l})
			ref[h] = l
		}
		check(step)
	}
	for h := range ref {
		tbl.Delete(h)
		delete(ref, h)
		check(-2)
	}
}
