package shard_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/shard"
	"github.com/pimlab/pimtrie/internal/workload"
)

// TestRebalanceMovesHotLoad drives a hotspot at one shard and checks a
// manual Rebalance cycle detects the imbalance, moves hot slots to
// cooler shards, and preserves the stored contents exactly.
func TestRebalanceMovesHotLoad(t *testing.T) {
	const shards = 4
	r := shard.New(shard.Config{Shards: shards, Modules: 8, Index: pimtrie.Options{Seed: 21}})
	defer r.Close()

	gen := workload.New(17)
	keys := dedupeKeys(gen.FixedLen(1500, 32))
	if err := r.Insert(keys, gen.Values(len(keys))); err != nil {
		t.Fatal(err)
	}
	before := dumpAll(t, r)

	// Prime the sample window, then slam shard 0's keys.
	if moves, err := r.Rebalance(); err != nil || moves != 0 {
		t.Fatalf("priming Rebalance = (%d, %v), want (0, nil)", moves, err)
	}
	table := r.Table()
	hot := keysOn(table, keys, 0)
	if len(hot) < 50 {
		t.Fatalf("only %d keys on shard 0", len(hot))
	}
	for i := 0; i < 10; i++ {
		if _, _, err := r.Get(hot); err != nil {
			t.Fatal(err)
		}
	}

	moves, err := r.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if moves == 0 {
		t.Fatalf("Rebalance moved nothing under a pure shard-0 hotspot (imbalance %.2f)",
			r.Stats().LastImbalance)
	}
	st := r.Stats()
	if st.LastImbalance < 1.3 {
		t.Errorf("LastImbalance = %.2f, want >= threshold 1.3", st.LastImbalance)
	}
	if st.Migrations == 0 || st.MovedKeys == 0 {
		t.Errorf("stats after rebalance: %+v, want migrations and moved keys", st)
	}
	afterTable := r.Table()
	lost := 0
	for s, sid := range table {
		if sid == 0 && afterTable[s] != 0 {
			lost++
		}
	}
	if lost != moves {
		t.Errorf("shard 0 lost %d slots, Rebalance reported %d moves", lost, moves)
	}

	// Contents are untouched by migration.
	after := dumpAll(t, r)
	sameKVs(t, "post-rebalance dump", after, before)

	// A balanced reload does not trigger further moves.
	if _, _, err := r.Get(keys); err != nil {
		t.Fatal(err)
	}
	if moves, err := r.Rebalance(); err != nil || moves != 0 {
		t.Fatalf("balanced Rebalance = (%d, %v), want (0, nil)", moves, err)
	}
}

// keysOn returns the keys whose slot the table gives to shard sid.
func keysOn(table []int, keys []shard.Key, sid int) []shard.Key {
	var out []shard.Key
	for _, k := range keys {
		if table[k.PrefixIndex(8)] == sid {
			out = append(out, k)
		}
	}
	return out
}

// TestRebalanceIgnoresIdleAndLight: an idle window, and one below the
// policy's 256 routed keys, move nothing no matter how imbalanced.
func TestRebalanceIgnoresIdleAndLight(t *testing.T) {
	r := shard.New(shard.Config{Shards: 2, Modules: 4, Index: pimtrie.Options{Seed: 2}})
	defer r.Close()
	gen := workload.New(5)
	keys := dedupeKeys(gen.FixedLen(200, 24))
	if err := r.Insert(keys, gen.Values(len(keys))); err != nil {
		t.Fatal(err)
	}
	r.Rebalance()
	if moves, _ := r.Rebalance(); moves != 0 {
		t.Fatalf("idle window moved %d slots", moves)
	}
	hot := keysOn(r.Table(), keys, 0)
	if 2*len(hot) >= 256 {
		t.Fatalf("%d keys on shard 0: the light window would not be light", len(hot))
	}
	for i := 0; i < 2; i++ {
		if _, _, err := r.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	if moves, _ := r.Rebalance(); moves != 0 {
		t.Fatalf("%d routed keys moved %d slots", 2*len(hot), moves)
	}
}

// TestRebalanceAfterMoveSeesRealWindow: a window that spans a manual
// MigrateSlot is scored like any other — the migration's own export,
// replay and delete never pass through the load counters — so a
// hotspot that outlives the move still gets moved.
func TestRebalanceAfterMoveSeesRealWindow(t *testing.T) {
	r := shard.New(shard.Config{Shards: 2, Modules: 8, Index: pimtrie.Options{Seed: 21}})
	defer r.Close()
	gen := workload.New(17)
	keys := dedupeKeys(gen.FixedLen(1500, 32))
	if err := r.Insert(keys, gen.Values(len(keys))); err != nil {
		t.Fatal(err)
	}
	if moves, err := r.Rebalance(); err != nil || moves != 0 {
		t.Fatalf("priming Rebalance = (%d, %v), want (0, nil)", moves, err)
	}
	slam := func() {
		t.Helper()
		hot := keysOn(r.Table(), keys, 0)
		for i := 0; i < 4; i++ {
			if _, _, err := r.Get(hot); err != nil {
				t.Fatal(err)
			}
		}
	}
	slam()
	if _, err := r.MigrateSlot(slices.Index(r.Table(), 0), 1); err != nil {
		t.Fatal(err)
	}
	slam()
	moves, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatalf("Rebalance after a manual move moved nothing under a shard-0 hotspot (imbalance %.2f)",
			r.Stats().LastImbalance)
	}
}

// TestMigrationUnderConcurrentWrites is the race test: writer
// goroutines churn disjoint key ranges through the router while the
// main goroutine forces migrations; the shard queues must keep every
// answer exact and the final state must equal the deterministic
// per-writer outcome. Run with -race in CI.
func TestMigrationUnderConcurrentWrites(t *testing.T) {
	const (
		writers  = 4
		perW     = 120
		shards   = 4
		migrates = 25
	)
	r := shard.New(shard.Config{Shards: shards, Modules: 8, Index: pimtrie.Options{Seed: 6}})
	defer r.Close()

	// Disjoint ranges: writer w's keys start with w's 8-bit tag — they
	// fill slot w — so no cross-writer conflicts and the final state is
	// deterministic.
	keysByW := make([][]shard.Key, writers)
	valsByW := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		gen := workload.New(int64(100 + w))
		tag := bitstr.FromUint64(uint64(w), 8)
		raw := dedupeKeys(gen.VarLen(perW, 1, 32))
		for _, k := range raw {
			keysByW[w] = append(keysByW[w], tag.Concat(k))
		}
		valsByW[w] = gen.Values(len(keysByW[w]))
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys, vals := keysByW[w], valsByW[w]
			// Insert everything in chunks, read it back, then delete the
			// odd half — all while migrations fire.
			for i := 0; i < len(keys); i += 30 {
				j := i + 30
				if j > len(keys) {
					j = len(keys)
				}
				if err := r.Insert(keys[i:j], vals[i:j]); err != nil {
					t.Errorf("writer %d insert: %v", w, err)
					return
				}
				gotV, gotF, err := r.Get(keys[i:j])
				if err != nil {
					t.Errorf("writer %d get: %v", w, err)
					return
				}
				for x := range gotF {
					if !gotF[x] || gotV[x] != vals[i+x] {
						t.Errorf("writer %d: key %q = (%d,%v), want (%d,true)",
							w, keys[i+x], gotV[x], gotF[x], vals[i+x])
						return
					}
				}
			}
			var odd []shard.Key
			for i := 1; i < len(keys); i += 2 {
				odd = append(odd, keys[i])
			}
			found, err := r.Delete(odd)
			if err != nil {
				t.Errorf("writer %d delete: %v", w, err)
				return
			}
			for i, f := range found {
				if !f {
					t.Errorf("writer %d: delete %q found=false", w, odd[i])
					return
				}
			}
		}()
	}

	// Move the writers' own slots, the ones holding data.
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < migrates; i++ {
		if _, err := r.MigrateSlot(rng.Intn(writers), rng.Intn(shards)); err != nil {
			t.Errorf("migrate %d: %v", i, err)
		}
	}
	wg.Wait()

	// Deterministic final state: even-indexed keys of every writer.
	want := map[string]uint64{}
	for w := 0; w < writers; w++ {
		for i := 0; i < len(keysByW[w]); i += 2 {
			want[keysByW[w][i].String()] = valsByW[w][i]
		}
	}
	dump := dumpAll(t, r)
	if len(dump) != len(want) {
		t.Fatalf("final dump has %d keys, want %d", len(dump), len(want))
	}
	for _, kv := range dump {
		v, ok := want[kv.Key.String()]
		if !ok || v != kv.Value {
			t.Fatalf("final state: %q = %d, want (%d, present=%v)", kv.Key, kv.Value, v, ok)
		}
	}
	if st := r.Stats(); st.Migrations == 0 {
		t.Error("no migrations recorded")
	}
}

// TestMigrationOrdersUnwaitedOps pins the ordering contract: ops
// submitted before a migration, and not waited on until after it,
// answer from the state before the move, because each shard queues
// their sub-calls ahead of the migration's own. Afterwards every key
// reads back from the new owner.
func TestMigrationOrdersUnwaitedOps(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const from, to = 0, 1
			r := shard.New(shard.Config{Shards: 2, Modules: 4, Index: pimtrie.Options{Seed: 17}})
			defer r.Close()
			slot := slices.Index(r.Table(), from)
			prefix := bitstr.FromUint64(uint64(slot), 8)
			var keys []shard.Key
			for _, k := range dedupeKeys(workload.New(29).FixedLen(96, 28)) {
				keys = append(keys, prefix.Concat(k))
			}
			half := len(keys) / 2
			state := map[string]uint64{}
			insert := func(ks []shard.Key, base uint64) *shard.InsertFuture {
				vs := make([]uint64, len(ks))
				for i, k := range ks {
					vs[i] = base + uint64(i)
					state[k.String()] = vs[i]
				}
				return r.InsertAsync(ks, vs)
			}
			if err := insert(keys[:half], 1000).Wait(); err != nil {
				t.Fatal(err)
			}

			// Pipeline reads and writes of the slot, none waited, recording
			// what each read must see in arrival order.
			type read struct {
				f    *shard.GetFuture
				want map[string]uint64
			}
			var reads []read
			snap := func() {
				want := make(map[string]uint64, len(state))
				for k, v := range state {
					want[k] = v
				}
				reads = append(reads, read{r.GetAsync(keys...), want})
			}
			snap()
			writes := []*shard.InsertFuture{insert(keys, 2000)}
			snap()
			var evens []shard.Key
			for i := 0; i < len(keys); i += 2 {
				evens = append(evens, keys[i])
				delete(state, keys[i].String())
			}
			del := r.DeleteAsync(evens...)
			snap()
			writes = append(writes, insert(evens[:len(evens)/2], 3000))
			snap()
			scan := r.SubtreeAsync(prefix)

			moved, err := r.MigrateSlot(slot, to)
			if err != nil {
				t.Fatal(err)
			}
			if moved != len(state) {
				t.Fatalf("migration moved %d pairs, want %d", moved, len(state))
			}

			for _, w := range writes {
				if err := w.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if found, err := del.Wait(); err != nil {
				t.Fatal(err)
			} else {
				for i, f := range found {
					if !f {
						t.Fatalf("delete of %q found nothing", evens[i])
					}
				}
			}
			check := func(what string, vals []uint64, found []bool, want map[string]uint64) {
				t.Helper()
				for i, k := range keys {
					v, ok := want[k.String()]
					if found[i] != ok || (ok && vals[i] != v) {
						t.Fatalf("%s: %q = (%d, %v), want (%d, %v)", what, k, vals[i], found[i], v, ok)
					}
				}
			}
			for j, rd := range reads {
				vals, found, err := rd.f.Wait()
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("read %d", j), vals, found, rd.want)
			}
			kvs, err := scan.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if len(kvs[0]) != len(state) {
				t.Fatalf("scan before the move: %d pairs, want %d", len(kvs[0]), len(state))
			}
			for _, kv := range kvs[0] {
				if v, ok := state[kv.Key.String()]; !ok || v != kv.Value {
					t.Fatalf("scan before the move: %q = %d, want (%d, %v)", kv.Key, kv.Value, v, ok)
				}
			}

			if got := r.Table()[slot]; got != to {
				t.Fatalf("slot %d on shard %d after migrating to %d", slot, got, to)
			}
			if byShard := r.Stats().KeysByShard; byShard[from] != 0 || byShard[to] != len(state) {
				t.Fatalf("keys by shard after the move = %v, want [0 %d]", byShard, len(state))
			}
			vals, found, err := r.Get(keys)
			if err != nil {
				t.Fatal(err)
			}
			check("after the move", vals, found, state)
		})
	}
}

// TestMigrationLoopEndToEnd drives the policy the way a deployment
// does: a ticker calls Rebalance while concurrent readers hammer the
// slots shard 0 owns, until a migration moves load off it.
func TestMigrationLoopEndToEnd(t *testing.T) {
	const shards, readers = 4, 3
	r := shard.New(shard.Config{Shards: shards, Modules: 8, Index: pimtrie.Options{Seed: 31}})
	defer r.Close()

	gen := workload.New(23)
	keys := dedupeKeys(gen.FixedLen(1200, 32))
	if err := r.Insert(keys, gen.Values(len(keys))); err != nil {
		t.Fatal(err)
	}
	hot := keysOn(r.Table(), keys, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			batch := make([]shard.Key, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					if rng.Intn(20) == 0 {
						batch[j] = keys[rng.Intn(len(keys))]
					} else {
						batch[j] = hot[rng.Intn(len(hot))]
					}
				}
				if _, _, err := r.Get(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		<-tick.C
		if _, err := r.Rebalance(); err != nil {
			t.Fatal(err)
		}
		if r.Stats().Migrations > 0 {
			return // the policy saw the hotspot and acted
		}
	}
	t.Fatalf("Rebalance on a ticker never moved a slot (imbalance %.2f)", r.Stats().LastImbalance)
}
