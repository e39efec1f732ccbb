package shard_test

// Snapshot reads under forced migration. With no logical writes after
// the preload, every published snapshot holds exactly the preloaded
// pairs — so every ReadSnapshot answer (served or fallen back) must be
// exact, even while MigrateSlot keeps flipping the routing table and
// rewriting shard contents underneath the lock-free readers. Run with
// -race: the point of this test is the reader/migration interleaving.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/shard"
	"github.com/pimlab/pimtrie/internal/workload"
)

func TestSnapshotReadsUnderMigration(t *testing.T) {
	const shards, readers = 4, 8
	r := shard.New(shard.Config{
		Shards:  shards,
		Modules: 8,
		Index:   pimtrie.Options{Seed: 9, Recoverable: true},
		Serve:   serve.Options{SnapshotReads: true},
	})
	defer r.Close()

	gen := workload.New(404)
	keys := dedupeKeys(gen.VarLen(600, 1, 32))
	vals := gen.Values(len(keys))
	if err := r.Insert(keys, vals); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for i, k := range keys {
		want[k.String()] = vals[i]
	}
	// Probe keys that may or may not be stored; the oracle map decides.
	probes := dedupeKeys(gen.VarLen(100, 1, 32))

	// Publication is asynchronous: spin until at least one batch is
	// served wait-free, so the soak below exercises the real fast path.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().SnapshotReads == 0 {
		if _, _, err := r.GetAsyncWith(shard.ReadSnapshot, keys[:8]...).Wait(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot-served reads before deadline")
		}
		time.Sleep(time.Millisecond)
	}

	stopC := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for {
				select {
				case <-stopC:
					return
				default:
				}
				batch := make([]shard.Key, 0, 16)
				for len(batch) < cap(batch) {
					if rng.Intn(8) == 0 {
						batch = append(batch, probes[rng.Intn(len(probes))])
					} else {
						batch = append(batch, keys[rng.Intn(len(keys))])
					}
				}
				gotV, gotF, err := r.GetAsyncWith(shard.ReadSnapshot, batch...).Wait()
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				for x, k := range batch {
					v, ok := want[k.String()]
					if gotF[x] != ok || (ok && gotV[x] != v) {
						t.Errorf("reader %d: %q = (%d,%v), want (%d,%v)",
							g, k, gotV[x], gotF[x], v, ok)
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		if _, err := r.MigrateSlot(rng.Intn(len(r.Table())), rng.Intn(shards)); err != nil {
			t.Errorf("migrate %d: %v", i, err)
			break
		}
	}
	close(stopC)
	wg.Wait()

	st := r.Stats()
	if st.SnapshotReads == 0 {
		t.Error("no keys served from shard snapshots")
	}
	if st.Migrations == 0 {
		t.Error("no migrations recorded")
	}
	t.Logf("snapshot reads=%d fallbacks=%d migrations=%d moved=%d",
		st.SnapshotReads, st.SnapshotFallbacks, st.Migrations, st.MovedKeys)
}

// TestSnapshotGetMixedShardGoesStrong pins the router's one snapshot
// probe per shard: a ReadSnapshot Get of a trusted key and a just-written
// key on one shard answers through the strong path, and the shard counts
// no snapshot-served key for it.
func TestSnapshotGetMixedShardGoesStrong(t *testing.T) {
	r := newSnapRouter()
	defer r.Close()
	// Both keys share their first 8 bits: one slot, one shard.
	checkRefusedReadCountsNothing(t, r,
		pimtrie.KeyFromUint(0xab00_0000_0000_0001, 64), pimtrie.KeyFromUint(0xab00_0000_0000_0002, 64))
}

// TestSnapshotGetCrossShardRefusalCountsNothing: with the trusted key on
// shard 0 and the just-written key on shard 1, shard 0's probe succeeds
// before shard 1's refuses; the call goes strong and shard 0 counts
// nothing either.
func TestSnapshotGetCrossShardRefusalCountsNothing(t *testing.T) {
	r := newSnapRouter()
	defer r.Close()
	table := r.Table()
	slot0, slot1 := slices.Index(table, 0), slices.Index(table, 1)
	checkRefusedReadCountsNothing(t, r,
		pimtrie.KeyFromUint(uint64(slot0)<<56|1, 64), pimtrie.KeyFromUint(uint64(slot1)<<56|2, 64))
}

func newSnapRouter() *shard.Router {
	return shard.New(shard.Config{
		Shards:  2,
		Modules: 4,
		Index:   pimtrie.Options{Seed: 3, Recoverable: true},
		Serve:   serve.Options{SnapshotReads: true},
	})
}

// checkRefusedReadCountsNothing stores cold and hot, rewrites hot, and
// reads both with ReadSnapshot while the filter still distrusts hot:
// the answers must be exact and no shard may count a snapshot-served
// key for the call.
func checkRefusedReadCountsNothing(t *testing.T, r *shard.Router, cold, hot shard.Key) {
	t.Helper()
	if err := r.Insert([]shard.Key{cold, hot}, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); r.Stats().SnapshotReads == 0; {
		if _, _, err := r.GetAsyncWith(shard.ReadSnapshot, cold).Wait(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot-served reads before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	snapKeys := func() []uint64 {
		var n []uint64
		for _, st := range r.ShardServerStats() {
			n = append(n, st.SnapshotKeys)
		}
		return n
	}

	// Retry the write until the probe right after it still sees the hot
	// key distrusted (republication may beat it).
	for try := 0; ; try++ {
		if try == 200 {
			t.Fatal("republication always beat the probe; the refused case never ran")
		}
		v := uint64(1000 + try)
		if err := r.Insert([]shard.Key{hot}, []uint64{v}); err != nil {
			t.Fatal(err)
		}
		fallbacks, served := r.Stats().SnapshotFallbacks, snapKeys()
		vals, found, err := r.GetAsyncWith(shard.ReadSnapshot, cold, hot).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !found[0] || vals[0] != 1 || !found[1] || vals[1] != v {
			t.Fatalf("Get(cold, hot) = %v %v, want [1 %d] [true true]", vals, found, v)
		}
		if r.Stats().SnapshotFallbacks == fallbacks {
			continue // both keys were trusted and served from the snapshot
		}
		for sid, n := range snapKeys() {
			if got := n - served[sid]; got != 0 {
				t.Fatalf("a call answered strong counted %d snapshot-served keys on shard %d", got, sid)
			}
		}
		return
	}
}
