package serve_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/telemetry"
	"github.com/pimlab/pimtrie/internal/trie"
)

// newServedSnap is newServed over a recoverable index (snapshot reads
// flatten the host shadow, so SnapshotReads requires it).
func newServedSnap(t *testing.T, p, n int, opts serve.Options) (*serve.Server, *trie.Trie, []serve.Key) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	seen := make(map[string]bool, n)
	keys := make([]serve.Key, 0, n)
	values := make([]uint64, 0, n)
	for len(keys) < n {
		k := randomKey(r, 72)
		id := fmt.Sprintf("%x/%d", k.Bytes(), k.Len())
		if seen[id] {
			continue
		}
		seen[id] = true
		keys = append(keys, k)
		values = append(values, uint64(len(keys)))
	}
	ix := pimtrie.New(p, pimtrie.Options{Seed: 11, Recoverable: true})
	ix.Load(keys, values)
	oracle := trie.New()
	for i, k := range keys {
		oracle.Insert(k, values[i])
	}
	return serve.NewServer(ix, opts), oracle, keys
}

// getWith is a blocking one-key Get under the given consistency mode.
func getWith(srv *serve.Server, c serve.Consistency, k serve.Key) (uint64, bool, error) {
	vals, found, err := srv.GetAsyncWith(c, k).Wait()
	if err != nil {
		return 0, false, err
	}
	return vals[0], found[0], nil
}

// TestSnapshotReadBasic checks the fast path end to end: snapshot reads
// agree with the strong path, an acknowledged write is immediately
// visible through ReadSnapshot (fallback until republication), and the
// Stats counters move.
func TestSnapshotReadBasic(t *testing.T) {
	srv, oracle, pool := newServedSnap(t, 4, 128, serve.Options{SnapshotReads: true})
	defer srv.Close()

	// Preloaded keys: snapshot answers must be bit-identical to the oracle.
	for _, k := range pool[:32] {
		wv, wok := oracle.Get(k)
		v, ok, err := getWith(srv, serve.ReadSnapshot, k)
		if err != nil || ok != wok || v != wv {
			t.Fatalf("snapshot Get(%q) = %d,%v,%v; oracle %d,%v", k, v, ok, err, wv, wok)
		}
	}
	if st := srv.Stats(); st.SnapshotKeys == 0 {
		t.Fatalf("no snapshot-served keys recorded: %+v", st)
	}
	if st := srv.Stats(); st.Requests[serve.OpGet] != 0 {
		t.Fatalf("snapshot reads leaked into the epoch path: %+v", st)
	}

	// An acked write must be visible to the very next ReadSnapshot.
	hot := pool[0]
	if err := srv.InsertAsync([]serve.Key{hot}, []uint64{424242}).Wait(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := getWith(srv, serve.ReadSnapshot, hot)
	if err != nil || !ok || v != 424242 {
		t.Fatalf("post-write snapshot Get = %d,%v,%v, want 424242 (stale snapshot served?)", v, ok, err)
	}

	// A multi-key call is served whole from the snapshot.
	keys := pool[32:64]
	vals, found, err := srv.GetAsyncWith(serve.ReadSnapshot, keys...).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		wv, wok := oracle.Get(k)
		if found[i] != wok || (wok && vals[i] != wv) {
			t.Fatalf("GetBatch[%d](%q) = %d,%v; oracle %d,%v", i, k, vals[i], found[i], wv, wok)
		}
	}
}

// TestSnapshotReadsRequireRecoverable asserts NewServer rejects
// SnapshotReads on an index that cannot snapshot.
func TestSnapshotReadsRequireRecoverable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SnapshotReads on a non-recoverable index did not panic")
		}
	}()
	ix := pimtrie.New(4, pimtrie.Options{Seed: 11})
	serve.NewServer(ix, serve.Options{SnapshotReads: true})
}

// TestSnapshotGetAllOrNothing checks the pure probe: a call whose keys
// the filter all trusts is served whole, and a call with one
// just-written key serves none of its keys and leaves the caller's
// slices untouched. Neither counts anything; GetAsyncWith counts every
// key of its call, served or sent back.
func TestSnapshotGetAllOrNothing(t *testing.T) {
	srv, oracle, pool := newServedSnap(t, 4, 64, serve.Options{SnapshotReads: true})
	defer srv.Close()

	hot, cold := pool[0], pool[1]
	// Publication is asynchronous: wait until the cold key is served.
	vals, found := make([]uint64, 1), make([]bool, 1)
	for deadline := time.Now().Add(5 * time.Second); !srv.SnapshotGet([]serve.Key{cold}, vals, found); {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot published before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if wv, wok := oracle.Get(cold); found[0] != wok || vals[0] != wv {
		t.Fatalf("cold key = %d,%v; oracle %d,%v", vals[0], found[0], wv, wok)
	}

	// A write stamps the hot key past the published epoch until the
	// publisher catches up, so retry the write until the probe right
	// after it still sees the hot key distrusted.
	keys := []serve.Key{hot, cold}
	for try := 0; ; try++ {
		if try == 200 {
			t.Fatal("republication always beat the probe; the mixed case never ran")
		}
		if err := srv.InsertAsync([]serve.Key{hot}, []uint64{uint64(1000 + try)}).Wait(); err != nil {
			t.Fatal(err)
		}
		before := srv.Stats()
		vals, found := []uint64{7, 7}, []bool{true, true}
		served := srv.SnapshotGet(keys, vals, found)
		if st := srv.Stats(); st.SnapshotKeys != before.SnapshotKeys || st.SnapshotFallbacks != before.SnapshotFallbacks {
			t.Fatalf("a probe counted %d served and %d fallback keys, want none",
				st.SnapshotKeys-before.SnapshotKeys, st.SnapshotFallbacks-before.SnapshotFallbacks)
		}
		if served {
			continue
		}
		if vals[0] != 7 || vals[1] != 7 || !found[0] || !found[1] {
			t.Fatalf("refused call wrote its slices: %v %v", vals, found)
		}
		if _, _, err := srv.GetAsyncWith(serve.ReadSnapshot, keys...).Wait(); err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		if got := st.SnapshotKeys + st.SnapshotFallbacks - before.SnapshotKeys - before.SnapshotFallbacks; got != 2 {
			t.Fatalf("GetAsyncWith of 2 keys counted %d", got)
		}
		return
	}
}

// TestSnapshotSoak hammers the fast path under -race with writers
// forcing constant republication. Assertions: (a) keys never written
// stay bit-identical to the oracle through every republication; (b) a
// key's acknowledged write is visible to every ReadSnapshot issued
// after the ack (per-key read-your-writes across goroutines); (c) the
// strong path stays bit-identical to serial replay (history oracle).
func TestSnapshotSoak(t *testing.T) {
	srv, oracle, pool := newServedSnap(t, 8, 400, serve.Options{
		MaxBatch: 64, SnapshotReads: true, RecordHistory: true,
	})
	cold := pool[200:] // never written below
	hot := pool[:8]

	// acked[i] is the largest value whose Insert(hot[i], v) has resolved.
	var acked [8]atomic.Uint64
	for i, k := range hot {
		v, _ := oracle.Get(k)
		acked[i].Store(v)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(500 + w)))
			for v := uint64(1); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (w*4 + r.Intn(4)) % len(hot) // writers own disjoint hot keys
				val := v*100 + uint64(i)
				if err := srv.InsertAsync([]serve.Key{hot[i]}, []uint64{val}).Wait(); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				// Monotone per key: each writer owns its keys, so the acked
				// value only grows.
				acked[i].Store(val)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for it := 0; it < 400; it++ {
				if r.Intn(2) == 0 {
					i := r.Intn(len(hot))
					floor := acked[i].Load()
					v, ok, err := getWith(srv, serve.ReadSnapshot, hot[i])
					if err != nil {
						t.Errorf("snapshot get: %v", err)
						return
					}
					if !ok || v < floor {
						t.Errorf("hot[%d]: snapshot read %d,%v older than acked floor %d", i, v, ok, floor)
						return
					}
				} else {
					k := cold[r.Intn(len(cold))]
					wv, wok := oracle.Get(k)
					v, ok, err := getWith(srv, serve.ReadSnapshot, k)
					if err != nil || ok != wok || v != wv {
						t.Errorf("cold key %q: snapshot read %d,%v,%v; oracle %d,%v", k, v, ok, err, wv, wok)
						return
					}
				}
			}
		}(int64(900 + w))
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	srv.Close()

	st := srv.Stats()
	if st.SnapshotKeys == 0 {
		t.Fatalf("soak never served from the snapshot: %+v", st)
	}
	if st.WriteEpochs == 0 {
		t.Fatalf("soak committed no write epochs: %+v", st)
	}
	// The strong path (fallbacks included) must still replay serially.
	replayHistory(t, srv.History(), oracle)
}

// TestSnapshotPairAtomicity is the publication soak: a single writer
// inserts fresh unique keys (one per write epoch), while readers assert
// every observed (flat, stamp) pair is coherent — the flat holds at
// least stamp inserts and at most the acked count — and stamps are
// monotone per reader. A torn pair (new flat with old stamp, or the
// reverse) violates one of the bounds.
func TestSnapshotPairAtomicity(t *testing.T) {
	srv, _, _ := newServedSnap(t, 4, 64, serve.Options{SnapshotReads: true})
	base := 64

	var ackedInserts atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(31))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := pimtrie.KeyFromUint(uint64(i), 64).Concat(randomKey(r, 8))
			if err := srv.InsertAsync([]serve.Key{k}, []uint64{uint64(i)}).Wait(); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			ackedInserts.Add(1)
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastStamp uint64
			for it := 0; it < 2000; it++ {
				flat, stamp := srv.SnapshotView()
				if flat == nil {
					t.Error("no published snapshot")
					return
				}
				if stamp < lastStamp {
					t.Errorf("published stamp went backwards: %d after %d", stamp, lastStamp)
					return
				}
				lastStamp = stamp
				kc := uint64(flat.KeyCount())
				if kc < uint64(base)+stamp {
					t.Errorf("torn pair: stamp %d but flat holds only %d keys (base %d)", stamp, kc, base)
					return
				}
				// KeyCount is read after the pair; bound it by the ack counter
				// read AFTER that, which can only overshoot the flat.
				if after := ackedInserts.Load(); kc > uint64(base)+after+1 {
					t.Errorf("flat holds %d keys but only %d inserts acked", kc, after)
					return
				}
			}
		}()
	}
	time.Sleep(120 * time.Millisecond)
	close(stop)
	wg.Wait()
	srv.Close()
}

// TestSnapshotMetricsLint renders a registry carrying the snapshot
// instruments after live traffic and lints the exposition — CI coverage
// that the series obey the conventions.
func TestSnapshotMetricsLint(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, _, pool := newServedSnap(t, 4, 128, serve.Options{SnapshotReads: true, Metrics: reg})
	// Touch both paths so the counters and gauges emit.
	for i := 0; i < 4; i++ {
		if _, _, err := getWith(srv, serve.ReadSnapshot, pool[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.InsertAsync([]serve.Key{pool[0]}, []uint64{1}).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.GetAsync(pool[:32]...).Wait(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE pimtrie_serve_snapshot_reads_total counter",
		"# TYPE pimtrie_serve_snapshot_fallbacks_total counter",
		"# TYPE pimtrie_serve_snapshot_age_epochs gauge",
		"# TYPE pimtrie_serve_snapshot_epoch gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, p := range telemetry.LintExposition(text) {
		t.Error(p)
	}
}

// TestSnapshotDeleteThenGet is the invalidation audit: a key read
// before a Delete of it must not be found after the Delete's ack, by a
// strong Get or a snapshot one.
func TestSnapshotDeleteThenGet(t *testing.T) {
	srv, _, pool := newServedSnap(t, 4, 64, serve.Options{SnapshotReads: true})
	defer srv.Close()
	hot := pool[0]
	for _, mode := range []serve.Consistency{serve.ReadStrong, serve.ReadSnapshot} {
		if _, ok, err := getWith(srv, mode, hot); err != nil || !ok {
			t.Fatalf("Get (mode %d) before Delete = %v,%v", mode, ok, err)
		}
	}
	if found, err := srv.DeleteAsync(hot).Wait(); err != nil || !found[0] {
		t.Fatalf("Delete = %v,%v", found, err)
	}
	if _, ok, err := srv.GetAsync(hot).Wait(); err != nil || ok[0] {
		t.Fatalf("strong Get after Delete = found=%v,%v, want miss", ok, err)
	}
	if _, ok, err := getWith(srv, serve.ReadSnapshot, hot); err != nil || ok {
		t.Fatalf("snapshot Get after Delete = found=%v,%v, want miss (stale snapshot?)", ok, err)
	}
}

// TestSnapshotDeleteSoak races deleters, re-inserters, and readers on
// a small hot set under -race: a Get that starts after a Delete ack and
// before any re-insert ack must miss. Writers serialize per key through
// a mutex so the ack ordering the assertion needs is well-defined.
func TestSnapshotDeleteSoak(t *testing.T) {
	srv, _, pool := newServedSnap(t, 4, 64, serve.Options{SnapshotReads: true})
	defer srv.Close()
	hot := pool[:4]
	// present[i] tracks the acked state of hot[i]: 1 = last acked write
	// was an insert, 0 = a delete. Guarded by muKey[i].
	var muKey [4]sync.Mutex
	var present [4]atomic.Int32
	for i := range present {
		present[i].Store(1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for it := 0; it < 120; it++ {
				i := r.Intn(len(hot))
				muKey[i].Lock()
				if present[i].Load() == 1 {
					if _, err := srv.DeleteAsync(hot[i]).Wait(); err != nil {
						t.Errorf("delete: %v", err)
					}
					present[i].Store(0)
				} else {
					if err := srv.InsertAsync([]serve.Key{hot[i]}, []uint64{uint64(it)}).Wait(); err != nil {
						t.Errorf("insert: %v", err)
					}
					present[i].Store(1)
				}
				muKey[i].Unlock()
			}
		}(int64(40 + w))
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for it := 0; it < 300; it++ {
				i := r.Intn(len(hot))
				// Pin the acked state for the whole read so the assertion is
				// exact, not racy: no writer can ack between our state load
				// and the Get.
				muKey[i].Lock()
				want := present[i].Load() == 1
				var ok bool
				var err error
				if r.Intn(2) == 0 {
					_, ok, err = getWith(srv, serve.ReadStrong, hot[i])
				} else {
					_, ok, err = getWith(srv, serve.ReadSnapshot, hot[i])
				}
				muKey[i].Unlock()
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if ok != want {
					t.Errorf("hot[%d]: found=%v but acked state says present=%v (stale snapshot)", i, ok, want)
					return
				}
			}
		}(int64(70 + w))
	}
	wg.Wait()
}
