package serve_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/trie"
)

// newServed builds an index preloaded with n distinct keys, a matching
// sequential oracle, and a Server over the index.
func newServed(t *testing.T, p, n int, opts serve.Options) (*serve.Server, *trie.Trie, []serve.Key) {
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
	ix := pimtrie.New(p, pimtrie.Options{Seed: 11})
	ix.Load(keys, values)
	oracle := trie.New()
	for i, k := range keys {
		oracle.Insert(k, values[i])
	}
	return serve.NewServer(ix, opts), oracle, keys
}

func randomKey(r *rand.Rand, maxLen int) serve.Key {
	n := 1 + r.Intn(maxLen)
	b := make([]byte, (n+7)/8)
	r.Read(b)
	return pimtrie.KeyFromBytes(b).Prefix(n)
}

// replayHistory replays the committed epoch order against the oracle
// and asserts every recorded response matches sequential execution.
func replayHistory(t *testing.T, hist []*serve.EpochRecord, oracle *trie.Trie) {
	t.Helper()
	for ei, er := range hist {
		for _, op := range er.Ops {
			switch op.Op {
			case serve.OpInsert:
				for i, k := range op.Keys {
					oracle.Insert(k, op.Values[i])
				}
			case serve.OpDelete:
				for i, k := range op.Keys {
					if got, want := op.Found[i], oracle.Delete(k); got != want {
						t.Fatalf("epoch %d: Delete(%q) found=%v, serial replay says %v", ei, k, got, want)
					}
				}
			case serve.OpGet:
				for i, k := range op.Keys {
					wv, wok := oracle.Get(k)
					if op.Found[i] != wok || (wok && op.Vals[i] != wv) {
						t.Fatalf("epoch %d: Get(%q) = %d,%v, serial replay says %d,%v",
							ei, k, op.Vals[i], op.Found[i], wv, wok)
					}
				}
			case serve.OpLCP:
				for i, k := range op.Keys {
					if want := oracle.LCPLen(k); op.LCPs[i] != want {
						t.Fatalf("epoch %d: LCP(%q) = %d, serial replay says %d",
							ei, k, op.LCPs[i], want)
					}
				}
			case serve.OpSubtree:
				for i, k := range op.Keys {
					want := oracle.SubtreeKeys(k)
					got := op.KVs[i]
					if len(got) != len(want) {
						t.Fatalf("epoch %d: Subtree(%q) returned %d pairs, serial replay says %d",
							ei, k, len(got), len(want))
					}
					for j := range want {
						if !bitstr.Equal(got[j].Key, want[j].Key) || got[j].Value != want[j].Value {
							t.Fatalf("epoch %d: Subtree(%q)[%d] = (%q,%d), serial replay says (%q,%d)",
								ei, k, j, got[j].Key, got[j].Value, want[j].Key, want[j].Value)
						}
					}
				}
			}
		}
	}
}

// TestServeSoak hammers a Server from many goroutines with mixed reads
// and writes of random batch sizes, then asserts every response it
// handed out is consistent with a serial replay of the committed epoch
// order. Run under -race.
func TestServeSoak(t *testing.T) {
	configs := []struct {
		name string
		opts serve.Options
	}{
		{"pipelined", serve.Options{MaxBatch: 64, RecordHistory: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			srv, oracle, pool := newServed(t, 8, 400, tc.opts)
			const workers = 12
			const iters = 40
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					pick := func() serve.Key {
						if r.Intn(4) == 0 {
							return randomKey(r, 72)
						}
						return pool[r.Intn(len(pool))]
					}
					for it := 0; it < iters; it++ {
						nk := 1 + r.Intn(6)
						keys := make([]serve.Key, nk)
						for i := range keys {
							keys[i] = pick()
						}
						switch r.Intn(10) {
						case 0, 1:
							vals := make([]uint64, nk)
							for i := range vals {
								vals[i] = r.Uint64()
							}
							if err := srv.InsertAsync(keys, vals).Wait(); err != nil {
								t.Errorf("insert: %v", err)
							}
						case 2:
							if _, err := srv.DeleteAsync(keys...).Wait(); err != nil {
								t.Errorf("delete: %v", err)
							}
						case 3:
							prefixes := make([]serve.Key, nk)
							for i, k := range keys {
								prefixes[i] = k.Prefix(1 + r.Intn(k.Len()))
							}
							if _, err := srv.SubtreeAsync(prefixes...).Wait(); err != nil {
								t.Errorf("subtree: %v", err)
							}
						case 4, 5, 6:
							if _, err := srv.LCPAsync(keys...).Wait(); err != nil {
								t.Errorf("lcp: %v", err)
							}
						default:
							if _, _, err := srv.GetAsync(keys...).Wait(); err != nil {
								t.Errorf("get: %v", err)
							}
						}
					}
				}(int64(100 + w))
			}
			wg.Wait()
			srv.Close()
			st := srv.Stats()
			if st.ReadEpochs == 0 || st.WriteEpochs == 0 {
				t.Fatalf("soak formed no epoch with reads or none with writes: %+v", st)
			}
			replayHistory(t, srv.History(), oracle)
		})
	}
}

// TestServeMixedEpochSoak is the adversarial input for the epoch cut
// rules: many clients keep inserts, deletes, Gets and LCPs of a 16-key
// hot set in flight, so nearly every epoch holds reads and writes,
// inserts keep landing on keys the same wave deletes, and reads keep
// following writes they depend on. Every response must equal a replay
// of the recorded epoch order, call by call. Run under -race.
func TestServeMixedEpochSoak(t *testing.T) {
	configs := []struct {
		name string
		opts serve.Options
	}{
		{"pipelined", serve.Options{MaxBatch: 64, RecordHistory: true}},
		{"small-batch", serve.Options{MaxBatch: 8, RecordHistory: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			tc.opts.Metrics = reg
			srv, oracle, hot := newServed(t, 8, 16, tc.opts)
			const workers = 8
			const iters = 50
			const burst = 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for it := 0; it < iters; it++ {
						var waits [burst + 1]func() error
						for b := 0; b < burst; b++ {
							keys := []serve.Key{hot[r.Intn(len(hot))], hot[r.Intn(len(hot))]}[:1+r.Intn(2)]
							switch r.Intn(4) {
							case 0:
								waits[b] = srv.InsertAsync(keys, []uint64{r.Uint64(), r.Uint64()}[:len(keys)]).Wait
							case 1:
								f := srv.DeleteAsync(keys...)
								waits[b] = func() error { _, err := f.Wait(); return err }
							case 2:
								f := srv.GetAsync(keys...)
								waits[b] = func() error { _, _, err := f.Wait(); return err }
							default:
								f := srv.LCPAsync(keys...)
								waits[b] = func() error { _, err := f.Wait(); return err }
							}
						}
						g := srv.GetAsync(hot[r.Intn(len(hot))])
						waits[burst] = func() error { _, _, err := g.Wait(); return err }
						for _, wait := range waits {
							if err := wait(); err != nil {
								t.Errorf("request: %v", err)
							}
						}
					}
				}(int64(500 + w))
			}
			wg.Wait()
			srv.Close()
			hist := srv.History()
			mixed, bothWrites := 0, 0
			for _, er := range hist {
				var has [serve.OpDelete + 1]bool
				for _, op := range er.Ops {
					has[op.Op] = true
				}
				if (has[serve.OpGet] || has[serve.OpLCP]) && (has[serve.OpInsert] || has[serve.OpDelete]) {
					mixed++
				}
				if has[serve.OpInsert] && has[serve.OpDelete] {
					bothWrites++
				}
			}
			v := reg.Varz()
			conflicts := v[`pimtrie_serve_epoch_cuts_total{reason="conflict"}`].(uint64)
			readCuts := v[`pimtrie_serve_epoch_cuts_total{reason="read_after_write"}`].(uint64)
			t.Logf("of %d epochs, %d held reads and writes and %d inserts and deletes; %d cut at a delete→insert conflict, %d at a read after a write",
				len(hist), mixed, bothWrites, conflicts, readCuts)
			if mixed == 0 || bothWrites == 0 || conflicts == 0 || readCuts == 0 {
				t.Fatal("the soak is vacuous: it needs epochs holding reads and writes, epochs holding inserts and deletes, and cuts at both a delete→insert conflict and a read after a write")
			}
			replayHistory(t, hist, oracle)
		})
	}
}

// TestServeClosed checks Close semantics: queued work drains, later
// submissions fail with ErrClosed.
func TestServeClosed(t *testing.T) {
	srv, _, pool := newServed(t, 4, 32, serve.Options{})
	futs := make([]*serve.LCPFuture, 8)
	for i := range futs {
		futs[i] = srv.LCPAsync(pool[i])
	}
	srv.Close()
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("pre-Close request %d not drained: %v", i, err)
		}
	}
	if _, _, err := srv.GetAsync(pool[0]).Wait(); err != serve.ErrClosed {
		t.Fatalf("post-Close Get err = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestServeEmpty checks zero-key requests resolve immediately.
func TestServeEmpty(t *testing.T) {
	srv, _, _ := newServed(t, 4, 16, serve.Options{})
	defer srv.Close()
	if vals, found, err := srv.GetAsync().Wait(); err != nil || len(vals) != 0 || len(found) != 0 {
		t.Fatalf("empty Get = %v,%v,%v", vals, found, err)
	}
	if lcps, err := srv.LCPAsync().Wait(); err != nil || len(lcps) != 0 {
		t.Fatalf("empty LCP = %v,%v", lcps, err)
	}
}
