package core

// End-to-end tests of the depth bounds HashMatching stops at (match.go):
// data the bound cannot help, and the bound's exactness under churn.

import (
	"maps"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// TestDeepDataBound runs a fixed script over data whose block roots
// reach (nearly) as deep as its keys, so the bound has little or nothing
// to skip: every answer equals the sequential trie's, the structure
// validates (bounds exact) after each mutation, and PIM work is no
// higher than the unbounded walk charged for the same script — the
// constants are the parent commit's figures, exact per seed.
func TestDeepDataBound(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keys      func(g *workload.Gen) []bitstr.String
		fresh     func(g *workload.Gen, keys []bitstr.String) []bitstr.String
		unbounded int64
	}{
		{
			name: "SharedPrefix(512,128)",
			keys: func(g *workload.Gen) []bitstr.String { return g.SharedPrefix(1500, 512, 128) },
			fresh: func(g *workload.Gen, keys []bitstr.String) []bitstr.String {
				out := make([]bitstr.String, 300)
				for i, tail := range g.FixedLen(len(out), 128) {
					out[i] = keys[0].Prefix(512).Concat(tail)
				}
				return out
			},
			unbounded: unboundedWorkSharedPrefix,
		},
		{
			name: "PrefixChain",
			keys: func(g *workload.Gen) []bitstr.String { return g.PrefixChain(300, 8) },
			fresh: func(g *workload.Gen, keys []bitstr.String) []bitstr.String {
				out := make([]bitstr.String, 100)
				for i, tail := range g.FixedLen(len(out), 40) {
					out[i] = keys[(i*3)%len(keys)].Concat(tail)
				}
				return out
			},
			unbounded: unboundedWorkPrefixChain,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := workload.New(5)
			keys := tc.keys(g)
			values := g.Values(len(keys))
			sys := pim.NewSystem(16, pim.WithSeed(5))
			pt := New(sys, Config{HashSeed: 5})
			oracle := trie.New()
			for i, k := range keys {
				oracle.Insert(k, values[i])
			}
			pt.Build(keys, values)
			validate := func(phase string) {
				t.Helper()
				if err := pt.Validate(); err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
			}
			validate("after build")
			queries := g.PrefixQueries(keys, 400, 16)
			fresh := tc.fresh(g, keys)
			freshVals := g.Values(len(fresh))

			before := sys.Metrics()
			checkLCP(t, pt, oracle, queries)
			checkGet(t, pt, oracle, queries)
			pt.Insert(fresh, freshVals)
			for i, k := range fresh {
				oracle.Insert(k, freshVals[i])
			}
			validate("after insert")
			checkLCP(t, pt, oracle, fresh)
			checkGet(t, pt, oracle, append(fresh[:50:50], queries[:50]...))
			for i, ok := range pt.Delete(fresh) {
				if ok != oracle.Delete(fresh[i]) {
					t.Fatalf("delete disagreement on %q", fresh[i])
				}
			}
			validate("after delete")
			checkLCP(t, pt, oracle, queries)
			work := sys.Metrics().Sub(before).PIMWork

			st := pt.CollectStats()
			t.Logf("PIM work %d (unbounded walk: %d); bounds master %d, regions median %d max %d",
				work, tc.unbounded, st.MasterBound, st.RegionBoundMedian, st.RegionBoundMax)
			if work > tc.unbounded {
				t.Fatalf("PIM work %d exceeds the unbounded walk's %d on data the bound cannot help", work, tc.unbounded)
			}
		})
	}
}

// PIM work of TestDeepDataBound's scripts at the commit before the depth
// bound (probeSegments walking every bit of every segment).
const (
	unboundedWorkSharedPrefix = 319337
	unboundedWorkPrefixChain  = 78530
)

// bounds snapshots both kinds of depth bound as the host holds them — the
// ones it clamps shipped segments to: the master table's and every live
// region's by address. Validate holds them equal to the modules'.
func bounds(pt *PIMTrie) (master int, regions map[pim.Addr]int) {
	return pt.masterBound(), maps.Clone(pt.regionBound)
}

// TestHostMasterBoundDropsWithDeepestEntry: the host's master bound is
// exact, not a high-water mark. Removing the deepest master entry — and
// then, entry by entry, every other one down to the root — lowers it to
// the deepest entry left, on the host and on every replica, in the same
// update round that removes the entry.
func TestHostMasterBoundDropsWithDeepestEntry(t *testing.T) {
	g := workload.New(13)
	keys := g.VarLen(4000, 24, 200)
	pt, _ := newTestTrie(8, Config{})
	pt.Build(keys, g.Values(len(keys)))
	if pt.master.Len() < 3 {
		t.Fatalf("test setup: only %d master entries", pt.master.Len())
	}
	for pt.master.Len() > 1 {
		deepest, hash := -1, uint64(0)
		pt.master.each(func(h uint64, e masterEntry) {
			if e.Len > deepest || (e.Len == deepest && h < hash) {
				deepest, hash = e.Len, h
			}
		})
		if deepest == 0 {
			break // only the root's entry has length 0
		}
		pt.masterRemoveAndAdd([]uint64{hash}, nil)
		want := pt.master.scanMaxLen()
		if pt.masterBound() != want || want > deepest {
			t.Fatalf("removing an entry of length %d left the host bound at %d, the entries left reach %d", deepest, pt.masterBound(), want)
		}
		for i := 0; i < pt.sys.P(); i++ {
			if got := pt.sys.Module(i).Get(pt.masterAddrs[i].ID).(*masterObj).entries.MaxLen(); got != want {
				t.Fatalf("module %d replica reports bound %d after the removal, want %d", i, got, want)
			}
		}
	}
	if pt.masterBound() != 0 {
		t.Fatalf("a master table of only the root reports bound %d", pt.masterBound())
	}
}

// TestBoundsDoNotRatchet: the index must not age. Load shallow keys,
// record every bound, push a prefix chain more than 1 000 bits deep
// through the index and delete it again: the master bound and every
// region's bound come back down to the shallow data's depth — no deeper
// than the longest key still stored — instead of staying at the chain's.
// They need not be the recorded values to the bit: a block or region the
// chain split stays split once the chain is gone (nothing merges), and
// its new root is a real, shallow member; Validate holds every bound to
// exactly its deepest member either way.
func TestBoundsDoNotRatchet(t *testing.T) {
	const shallow = 64
	g := workload.New(9)
	keys := g.VarLen(3000, 24, shallow)
	pt, _ := newTestTrie(8, Config{})
	pt.Build(keys, g.Values(len(keys)))
	master0, regions0 := bounds(pt)

	chain := g.PrefixChain(160, 8)
	pt.Insert(chain, g.Values(len(chain)))
	if err := pt.Validate(); err != nil {
		t.Fatalf("after chain insert: %v", err)
	}
	masterUp, regionsUp := bounds(pt)
	deepest := 0
	for _, b := range regionsUp {
		deepest = max(deepest, b)
	}
	if masterUp < 1000 || deepest < 1000 {
		t.Fatalf("a %d-bit chain raised the master bound to %d and the deepest region bound to %d: the scenario does not reach deep",
			chain[len(chain)-1].Len(), masterUp, deepest)
	}

	for i, ok := range pt.Delete(chain) {
		if !ok {
			t.Fatalf("chain key %d was not stored", i)
		}
	}
	if err := pt.Validate(); err != nil {
		t.Fatalf("after chain delete: %v", err)
	}
	master1, regions1 := bounds(pt)
	if master1 > shallow {
		t.Fatalf("master bound %d before the chain, %d at its deepest, still %d after deleting it", master0, masterUp, master1)
	}
	same, survivors := 0, 0
	for addr, now := range regions1 {
		if now > shallow {
			t.Fatalf("region %v keeps bound %d (was %d at the chain's deepest) with only ≤ %d-bit keys stored", addr, now, regionsUp[addr], shallow)
		}
		if was, ok := regions0[addr]; ok {
			survivors++
			if now == was {
				same++
			}
		}
	}
	if survivors == 0 {
		t.Fatal("no region survived the churn")
	}
	t.Logf("master bound %d → %d → %d; %d of %d surviving regions back at their recorded bound, the rest within %d bits",
		master0, masterUp, master1, same, survivors, shallow)
}
