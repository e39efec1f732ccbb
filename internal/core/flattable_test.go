package core

import (
	"math/rand"
	"testing"

	"github.com/pimlab/pimtrie/internal/pim"
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

// TestValidateRejectsCorruptReplica corrupts one module's master replica
// — a key dropped, a key swapped for a stranger of the same Len, a Len
// changed under the bound, the depth bound left stale in either
// direction — and Validate must reject each. A replica stores only keys
// and Lens, so these are all the replica check has left to compare. It
// runs on a fault-free index and again on a module respawned after a
// crash (allocMasters, then the repair's master broadcast).
func TestValidateRejectsCorruptReplica(t *testing.T) {
	check := func(t *testing.T, pt *PIMTrie, module int) {
		if err := pt.Validate(); err != nil {
			t.Fatalf("Validate before corruption: %v", err)
		}
		// The deepest and the shallowest entry.
		var deep, shallow uint64
		dl, sl := -1, -1
		pt.master.each(func(h uint64, e masterEntry) {
			if e.Len > dl {
				deep, dl = h, e.Len
			}
			if sl < 0 || e.Len < sl {
				shallow, sl = h, e.Len
			}
		})
		if _, taken := pt.master.Get(deep ^ 1); sl >= dl || taken {
			t.Fatalf("test setup: master Lens span [%d, %d]", sl, dl)
		}
		corruptions := []struct {
			name string
			do   func(r *metaTable)
		}{
			{"dropped key", func(r *metaTable) { r.Delete(shallow) }},
			{"swapped key", func(r *metaTable) { r.Delete(deep); r.Put(deep^1, masterEntry{Len: dl}) }},
			{"changed Len", func(r *metaTable) { r.Put(shallow, masterEntry{Len: sl + 1}) }},
			{"stale bound above", func(r *metaTable) { r.maxLen++ }},
			{"stale bound below", func(r *metaTable) { r.maxLen-- }},
		}
		mo := pt.sys.Module(module).Get(pt.masterAddrs[module].ID).(*masterObj)
		orig := mo.entries
		for _, c := range corruptions {
			mo.entries = orig.replica()
			c.do(mo.entries)
			if err := pt.Validate(); err == nil {
				t.Errorf("module %d replica with a %s passes Validate", module, c.name)
			}
		}
		mo.entries = orig
		if err := pt.Validate(); err != nil {
			t.Fatalf("Validate after restoring the replica: %v", err)
		}
	}
	t.Run("fault-free", func(t *testing.T) {
		_, _, pt, sys := runRecoveryScript(nil)
		defer sys.Close()
		check(t, pt, 5)
	})
	t.Run("respawned", func(t *testing.T) {
		_, rounds, _, osys := runRecoveryScript(nil)
		osys.Close()
		mid := (rounds.afterBuild + rounds.afterLCP1) / 2
		_, _, pt, sys := runRecoveryScript(&pim.FaultPlan{Events: []pim.FaultEvent{
			{Round: mid, Kind: pim.FaultCrash, Module: 5},
		}})
		defer sys.Close()
		if h := pt.Health(); h.Recoveries != 1 || h.FullRebuilds != 0 {
			t.Fatalf("test setup: want one targeted repair, got %+v", h)
		}
		check(t, pt, 5)
	})
}
