package shard_test

// Oracle-equality tests: a Router over any shard count and slot layout
// must answer every operation bit-identically
// to one pimtrie.Index holding all the keys — including cross-shard
// Subtrees merges and answers straddling forced mid-script migrations.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/shard"
	"github.com/pimlab/pimtrie/internal/workload"
)

func sameKVs(t *testing.T, what string, got, want []shard.KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bitstr.Equal(got[i].Key, want[i].Key) || got[i].Value != want[i].Value {
			t.Fatalf("%s: pair %d = (%q, %d), want (%q, %d)",
				what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// driveOracle runs a mixed scripted workload against router and oracle
// and compares every answer. migrate, when non-nil, is invoked between
// script steps to force slot moves mid-run.
func driveOracle(t *testing.T, r *shard.Router, oracle *pimtrie.Index, seed int64, migrate func(step int)) {
	t.Helper()
	gen := workload.New(seed)
	rng := rand.New(rand.NewSource(seed + 77))

	// Variable-length keys starting at 1 bit: lots of keys shorter than
	// the router's 8 routing bits, exercising replication.
	keys := dedupeKeys(gen.VarLen(500, 1, 48))
	vals := gen.Values(len(keys))

	chunk := 64
	for i := 0; i < len(keys); i += chunk {
		j := i + chunk
		if j > len(keys) {
			j = len(keys)
		}
		if err := r.Insert(keys[i:j], vals[i:j]); err != nil {
			t.Fatalf("router insert: %v", err)
		}
		oracle.Insert(keys[i:j], vals[i:j])
	}

	for step := 0; step < 12; step++ {
		if migrate != nil {
			migrate(step)
		}

		// Point lookups: stored keys, random probes, prefixes of stored keys.
		queries := append([]shard.Key{}, gen.Zipf(keys, 40, 1.2)...)
		queries = append(queries, gen.VarLen(20, 1, 40)...)
		queries = append(queries, gen.PrefixQueries(keys, 20, 4)...)
		gotV, gotF, err := r.Get(queries)
		if err != nil {
			t.Fatalf("step %d router get: %v", step, err)
		}
		wantV, wantF := oracle.Get(queries)
		for i := range queries {
			if gotF[i] != wantF[i] || (gotF[i] && gotV[i] != wantV[i]) {
				t.Fatalf("step %d get %q = (%d,%v), want (%d,%v)",
					step, queries[i], gotV[i], gotF[i], wantV[i], wantF[i])
			}
		}

		// LCP over the same mixed queries.
		gotL, err := r.LCP(queries)
		if err != nil {
			t.Fatalf("step %d router lcp: %v", step, err)
		}
		for i, want := range oracle.LCP(queries) {
			if gotL[i] != want {
				t.Fatalf("step %d lcp %q = %d, want %d", step, queries[i], gotL[i], want)
			}
		}

		// Subtrees: empty prefix (full ordered dump), short prefixes that
		// straddle shards, and long prefixes owned by one slot.
		prefixes := []shard.Key{bitstr.Empty}
		for _, n := range []int{1, 2, 3, 5, 9, 17} {
			k := keys[rng.Intn(len(keys))]
			if k.Len() < n {
				prefixes = append(prefixes, k)
			} else {
				prefixes = append(prefixes, k.Prefix(n))
			}
		}
		gotS, err := r.Subtrees(prefixes)
		if err != nil {
			t.Fatalf("step %d router subtrees: %v", step, err)
		}
		wantS := oracle.Subtrees(prefixes)
		for i := range prefixes {
			sameKVs(t, fmt.Sprintf("step %d subtree %q", step, prefixes[i]), gotS[i], wantS[i])
		}

		// Mutate: delete a few stored keys and a few misses, reinsert
		// fresh keys (shifted values) to keep the store churning.
		dels := append(gen.Zipf(keys, 6, 1.1), gen.VarLen(3, 1, 40)...)
		dels = dedupeKeys(dels)
		gotD, err := r.Delete(dels)
		if err != nil {
			t.Fatalf("step %d router delete: %v", step, err)
		}
		for i, want := range oracle.Delete(dels) {
			if gotD[i] != want {
				t.Fatalf("step %d delete %q = %v, want %v", step, dels[i], gotD[i], want)
			}
		}
		fresh := dedupeKeys(gen.VarLen(8, 1, 48))
		fvals := gen.Values(len(fresh))
		if err := r.Insert(fresh, fvals); err != nil {
			t.Fatalf("step %d router insert: %v", step, err)
		}
		oracle.Insert(fresh, fvals)
		keys = append(keys, fresh...)
	}

	// Final full-state check.
	gotAll := dumpAll(t, r)
	sameKVs(t, "final full dump", gotAll, oracle.Subtree(bitstr.Empty))
}

// dedupeKeys drops repeated keys, keeping first occurrences, so batch
// answers don't depend on duplicate-application order.
func dedupeKeys(keys []bitstr.String) []bitstr.String {
	seen := make(map[string]bool, len(keys))
	out := keys[:0]
	for _, k := range keys {
		s := k.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, k)
		}
	}
	return out
}

// layContiguous migrates the slots of an empty router into equal
// contiguous runs on consecutive shards, the range-partitioned layout
// the dealt table never starts from.
func layContiguous(t *testing.T, r *shard.Router) {
	t.Helper()
	for slot := range len(r.Table()) {
		if _, err := r.MigrateSlot(slot, slot*r.Shards()/len(r.Table())); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouterMatchesOracle(t *testing.T) {
	cases := []struct {
		name       string
		shards     int
		seed       int64
		contiguous bool
	}{
		{"1shard-contiguous", 1, 11, true},
		{"3shard-hashed", 3, 9, false},
		{"4shard-contiguous", 4, 11, true},
		{"8shard-hashed", 8, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := shard.New(shard.Config{
				Shards:  tc.shards,
				Modules: 8,
				Index:   pimtrie.Options{Seed: tc.seed},
			})
			defer r.Close()
			if tc.contiguous {
				layContiguous(t, r)
			}
			oracle := pimtrie.New(8, pimtrie.Options{Seed: 5})
			driveOracle(t, r, oracle, 321, nil)
		})
	}
}

// TestRouterMatchesOracleAcrossMigrations forces slot migrations
// between script steps: every answer before and after each move must
// still match the oracle, and moved ranges must not resurface on their
// old shard.
func TestRouterMatchesOracleAcrossMigrations(t *testing.T) {
	const shards = 4
	r := shard.New(shard.Config{
		Shards:  shards,
		Modules: 8,
		Index:   pimtrie.Options{Seed: 3},
	})
	defer r.Close()
	oracle := pimtrie.New(8, pimtrie.Options{Seed: 8})
	rng := rand.New(rand.NewSource(99))
	driveOracle(t, r, oracle, 654, func(step int) {
		// Force a couple of random moves per step, occasionally a no-op
		// move to the current owner.
		for i := 0; i < 2; i++ {
			slot := rng.Intn(len(r.Table()))
			to := rng.Intn(shards)
			if _, err := r.MigrateSlot(slot, to); err != nil {
				t.Fatalf("step %d migrate slot %d -> %d: %v", step, slot, to, err)
			}
			if got := r.Table()[slot]; got != to {
				t.Fatalf("step %d: slot %d owned by %d after migrating to %d", step, slot, got, to)
			}
		}
	})
	if st := r.Stats(); st.Migrations == 0 {
		t.Fatal("no migrations recorded despite forced moves")
	}
}

// TestRouterAsyncPipelining checks that overlapping async batches from
// one caller resolve correctly (futures are independent).
func TestRouterAsyncPipelining(t *testing.T) {
	r := shard.New(shard.Config{Shards: 3, Modules: 8, Index: pimtrie.Options{Seed: 1}})
	defer r.Close()
	gen := workload.New(7)
	keys := dedupeKeys(gen.VarLen(300, 2, 40))
	vals := gen.Values(len(keys))
	if err := r.Insert(keys, vals); err != nil {
		t.Fatal(err)
	}
	futs := make([]*shard.GetFuture, 8)
	for i := range futs {
		futs[i] = r.GetAsync(keys[i*20 : i*20+20]...)
	}
	for i, f := range futs {
		gotV, gotF, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		for j := 0; j < 20; j++ {
			if !gotF[j] || gotV[j] != vals[i*20+j] {
				t.Fatalf("future %d key %d = (%d,%v), want (%d,true)",
					i, j, gotV[j], gotF[j], vals[i*20+j])
			}
		}
	}
}

// TestRouterClosed: operations after Close fail cleanly.
func TestRouterClosed(t *testing.T) {
	r := shard.New(shard.Config{Shards: 2, Modules: 4, Index: pimtrie.Options{Seed: 1}})
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Get([]shard.Key{pimtrie.KeyFromBits("0101")}); err == nil {
		t.Fatal("Get after Close succeeded")
	}
	if _, err := r.MigrateSlot(0, 1); err == nil {
		t.Fatal("MigrateSlot after Close succeeded")
	}
}

// TestRouterReplicaDedupeManyShards repeats a short key in one Insert
// batch on more than 64 shards: every replica must keep the later
// value, so that it survives a migration that makes a replica the
// primary copy.
func TestRouterReplicaDedupeManyShards(t *testing.T) {
	r := shard.New(shard.Config{Shards: 65, Modules: 2, Index: pimtrie.Options{Seed: 3}})
	defer r.Close()
	k := pimtrie.KeyFromBits("0")
	if err := r.Insert([]shard.Key{k, k}, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MigrateSlot(0, (r.Table()[0]+1)%r.Shards()); err != nil {
		t.Fatal(err)
	}
	if v, found, err := r.Get([]shard.Key{k}); err != nil || !found[0] || v[0] != 2 {
		t.Fatalf("Get(0) after migration = (%v, %v, %v), want 2", v, found, err)
	}
	sameKVs(t, "full dump", dumpAll(t, r), []shard.KV{{Key: k, Value: 2}})
}

// dumpAll returns every pair the router stores: one Subtrees call on
// the empty prefix.
func dumpAll(t *testing.T, r *shard.Router) []shard.KV {
	t.Helper()
	res, err := r.Subtrees([]shard.Key{bitstr.Empty})
	if err != nil {
		t.Fatalf("full dump: %v", err)
	}
	return res[0]
}

// settleGoroutines polls until the goroutine count holds still at want
// (or at any value, for want < 0) and returns it. Each poll collects
// garbage, so that dropped PIM systems' finalizers stop their module
// workers.
func settleGoroutines(want int) int {
	prev := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev && (want < 0 || cur == want) {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestRouterAddsOneGoroutinePerShard asserts a router runs one
// goroutine per shard (each shard server's executor) and none per
// request or for its migration policy: 256 pipelined Gets and a
// Rebalance leave the count where it was. Close stops them all. At
// GOMAXPROCS 1 the shards' PIM simulators run module programs inline
// and start no workers.
func TestRouterAddsOneGoroutinePerShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, pipelined = 3, 256
	gen := workload.New(5)
	keys := dedupeKeys(gen.FixedLen(pipelined, 24))
	vals := gen.Values(len(keys))
	base := settleGoroutines(-1)
	want := base + shards
	r := shard.New(shard.Config{Shards: shards, Modules: 4, Index: pimtrie.Options{Seed: 8}})
	if err := r.Insert(keys, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := settleGoroutines(want); got != want {
		t.Fatalf("running router has %d goroutines, want %d", got, want)
	}
	futs := make([]*shard.GetFuture, len(keys))
	for i, k := range keys {
		futs[i] = r.GetAsync(k)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines with %d Gets in flight, want %d", got, len(futs), want)
	}
	for i, f := range futs {
		if v, found, err := f.Wait(); err != nil || !found[0] || v[0] != vals[i] {
			t.Fatalf("Get %d = (%v, %v, %v), want %d", i, v, found, err, vals[i])
		}
	}
	r.Close()
	if got := settleGoroutines(base); got != base {
		t.Fatalf("%d goroutines after Close, want %d", got, base)
	}
}

// TestDealBalancesSlots pins the initial slot deal: every shard owns
// the same number of slots (±1), and the table is the one earlier
// releases dealt for the same Index.Seed — a seeded shuffle of the 256
// slots dealt round-robin.
func TestDealBalancesSlots(t *testing.T) {
	for _, seed := range []int64{1, 6} {
		for _, shards := range []int{1, 2, 3, 5, 8} {
			r := shard.New(shard.Config{Shards: shards, Modules: 2, Index: pimtrie.Options{Seed: seed}})
			table := r.Table()
			r.Close()

			want := make([]int, 256)
			for i, s := range rand.New(rand.NewSource(seed ^ 0x5a17)).Perm(256) {
				want[s] = i % shards
			}
			if !slices.Equal(table, want) {
				t.Errorf("seed %d shards=%d: table differs from the seeded deal", seed, shards)
			}
			counts := make([]int, shards)
			for _, sid := range table {
				counts[sid]++
			}
			for sid, n := range counts {
				if lo := 256 / shards; n < lo || n > lo+1 {
					t.Errorf("seed %d shards=%d: shard %d owns %d slots, want %d or %d", seed, shards, sid, n, lo, lo+1)
				}
			}
		}
	}
}
