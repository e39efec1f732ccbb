package shard_test

// Snapshot reads under forced migration. With no logical writes after
// the preload, every published snapshot holds exactly the preloaded
// pairs — so every ReadSnapshot answer (served or fallen back) must be
// exact, even while MigrateSlot keeps flipping the routing table and
// rewriting shard contents underneath the lock-free readers. Run with
// -race: the point of this test is the reader/migration interleaving.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/shard"
	"github.com/pimlab/pimtrie/internal/workload"
)

func TestSnapshotReadsUnderMigration(t *testing.T) {
	const shards, bits, readers = 4, 5, 8
	r := shard.New(shard.Config{
		Shards:      shards,
		RouteBits:   bits,
		Partitioner: shard.HashedPrefix{Seed: 9},
		Modules:     8,
		Index:       pimtrie.Options{Seed: 21, Recoverable: true},
		Serve:       serve.Options{SnapshotReads: true},
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
		if _, err := r.MigrateSlot(rng.Intn(r.Slots()), rng.Intn(shards)); err != nil {
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
