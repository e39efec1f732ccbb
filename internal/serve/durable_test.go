package serve

import (
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/telemetry"
	"github.com/pimlab/pimtrie/internal/wal"
	"github.com/pimlab/pimtrie/internal/workload"
)

func newRecoverableIndex() *pimtrie.Index {
	return pimtrie.New(8, pimtrie.Options{Seed: 42, Recoverable: true})
}

// dumpIndex renders an index's full contents via a frozen snapshot.
func dumpIndex(ix *pimtrie.Index) map[string]uint64 {
	out := map[string]uint64{}
	ix.Snapshot().WalkKeys(func(k bitstr.String, v uint64) { out[k.String()] = v })
	return out
}

// TestDurableCleanShutdownNoLoss pins the graceful-shutdown contract:
// after Close returns, every acknowledged write is recoverable — even
// under SyncNone, because Close fsyncs the log before returning.
func TestDurableCleanShutdownNoLoss(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ix := newRecoverableIndex()
	srv := NewServer(ix, Options{Durable: &Durable{Log: log, OwnLog: true, CheckpointEvery: 8}})

	g := workload.New(1)
	keys := g.VarLen(400, 12, 60)
	acked := map[string]uint64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * 100; i < (c+1)*100; i += 2 {
				ks := []Key{keys[i], keys[i+1]}
				vs := []uint64{uint64(i), uint64(i + 1)}
				if err := srv.InsertAsync(ks, vs).Wait(); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				mu.Lock()
				for j, k := range ks {
					acked[k.String()] = vs[j]
				}
				mu.Unlock()
				if i%20 == 0 {
					if _, err := srv.DeleteAsync(ks[0]).Wait(); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					mu.Lock()
					delete(acked, ks[0].String())
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	srv.Close()
	if err := srv.DurabilityErr(); err != nil {
		t.Fatalf("durability error: %v", err)
	}

	info, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTail {
		t.Fatal("clean shutdown left a torn tail")
	}
	ix2 := newRecoverableIndex()
	if err := Restore(ix2, info); err != nil {
		t.Fatal(err)
	}
	got := dumpIndex(ix2)
	if len(got) != len(acked) {
		t.Fatalf("recovered %d keys, acked state has %d", len(got), len(acked))
	}
	for k, v := range acked {
		if got[k] != v {
			t.Fatalf("key %s: recovered %d want %d", k, got[k], v)
		}
	}
}

// TestDurableRecoveryEquivalence round-trips a mixed workload through
// checkpoints + log pruning + OpenDurable twice and requires the
// recovered index be bit-identical to the survivor.
func TestDurableRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ix := newRecoverableIndex()
	// CheckpointEvery 4 forces several checkpoint+prune cycles.
	srv := NewServer(ix, Options{Durable: &Durable{Log: log, OwnLog: true, CheckpointEvery: 4}})

	g := workload.New(2)
	keys := g.VarLen(600, 12, 64)
	values := g.Values(len(keys))
	for i := 0; i < len(keys); i += 20 {
		if err := srv.InsertAsync(keys[i:i+20], values[i:i+20]).Wait(); err != nil {
			t.Fatal(err)
		}
		if i%100 == 80 {
			if _, err := srv.DeleteAsync(keys[i : i+7]...).Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := dumpIndex(ix)
	srv.Close()
	if err := srv.DurabilityErr(); err != nil {
		t.Fatalf("durability error: %v", err)
	}

	// First restart: recovery must reproduce the pre-shutdown state.
	srv2, info, err := OpenDurable(dir, wal.Options{Policy: wal.SyncNone}, Options{}, newRecoverableIndex)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointSeq == 0 {
		t.Fatal("no checkpoint was written despite CheckpointEvery=4")
	}
	if srv2.opts.Durable != nil || srv2.dur.cfg.Recovery != nil {
		t.Fatal("the restarted server still references the recovery image (checkpoint arrays + replay tail)")
	}
	got := dumpIndex(srv2.ix)
	if len(got) != len(want) {
		t.Fatalf("restart 1: %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("restart 1: key %s = %d, want %d", k, got[k], v)
		}
	}

	// Write through the restarted server, restart again.
	extra := g.VarLen(60, 12, 64)
	ev := g.Values(len(extra))
	if err := srv2.InsertAsync(extra, ev).Wait(); err != nil {
		t.Fatal(err)
	}
	for i, k := range extra {
		want[k.String()] = ev[i]
	}
	want2 := dumpIndex(srv2.ix)
	srv2.Close()

	srv3, _, err := OpenDurable(dir, wal.Options{Policy: wal.SyncNone}, Options{}, newRecoverableIndex)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	got = dumpIndex(srv3.ix)
	if len(got) != len(want2) {
		t.Fatalf("restart 2: %d keys, want %d", len(got), len(want2))
	}
	for k, v := range want2 {
		if got[k] != v {
			t.Fatalf("restart 2: key %s = %d, want %d", k, got[k], v)
		}
	}
	// And the replayed state matches the client-visible history too.
	if len(want2) != len(want) {
		t.Fatalf("oracle drift: snapshot dump %d keys, tracked %d", len(want2), len(want))
	}
}

// TestRestoreAppliesInsertsThenDeletes pins the replay order of a
// record's two sections: a key the epoch inserted and then deleted must
// be gone, which "deletes first" would get wrong.
func TestRestoreAppliesInsertsThenDeletes(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := bitstr.FromUint64(1, 24), bitstr.FromUint64(2, 24), bitstr.FromUint64(3, 24)
	if _, err := log.AppendEpoch([]Key{c}, []uint64{30}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := log.AppendEpoch([]Key{a, b}, []uint64{10, 20}, []Key{a, c}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix := newRecoverableIndex()
	if err := Restore(ix, info); err != nil {
		t.Fatal(err)
	}
	if got := dumpIndex(ix); len(got) != 1 || got[b.String()] != 20 {
		t.Fatalf("restored %v, want only %s=20", got, b)
	}
}

// TestSnapshotConsistentUnderWrites is the COW soak (run under -race):
// snapshots taken while write epochs commit must land on epoch
// boundaries. Every insert call writes a *pair* of keys with equal
// values in one call — one call is always within one epoch — so any
// snapshot observing half a pair is a torn snapshot.
func TestSnapshotConsistentUnderWrites(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ix := newRecoverableIndex()
	srv := NewServer(ix, Options{Durable: &Durable{Log: log, OwnLog: true, CheckpointEvery: 16}})

	pairKey := func(i int, half uint64) Key {
		return bitstr.FromUint64(uint64(i)<<1|half, 40)
	}
	const pairs = 300
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < pairs; i++ {
			ks := []Key{pairKey(i, 0), pairKey(i, 1)}
			vs := []uint64{uint64(i) * 7, uint64(i) * 7}
			if err := srv.InsertAsync(ks, vs).Wait(); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				walked := 0
				snap.WalkKeys(func(k bitstr.String, v uint64) { walked++ })
				if walked != snap.KeyCount() {
					t.Errorf("snapshot internally inconsistent: walked %d, KeyCount %d", walked, snap.KeyCount())
					return
				}
				for i := 0; i < pairs; i++ {
					v0, ok0 := snap.Get(pairKey(i, 0))
					v1, ok1 := snap.Get(pairKey(i, 1))
					if ok0 != ok1 || (ok0 && v0 != v1) {
						t.Errorf("torn snapshot at pair %d: (%d,%v) vs (%d,%v)", i, v0, ok0, v1, ok1)
						return
					}
				}
			}
		}()
	}
	writer.Wait()
	close(stop)
	readers.Wait()
	srv.Close()
	if err := srv.DurabilityErr(); err != nil {
		t.Fatalf("durability error: %v", err)
	}
	if snap := srv.Snapshot(); snap.KeyCount() != 2*pairs {
		t.Fatalf("final snapshot has %d keys, want %d", snap.KeyCount(), 2*pairs)
	}
}

// TestDurableMetricsLint scrapes a durable server's registry — WAL,
// checkpoint, and recovery instruments included — and runs the repo's
// exposition lint over it.
func TestDurableMetricsLint(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	srv, _, err := OpenDurable(dir,
		wal.Options{Policy: wal.SyncEveryEpoch},
		Options{Metrics: reg, Durable: &Durable{CheckpointEvery: 2}},
		newRecoverableIndex)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(3)
	keys := g.VarLen(120, 12, 48)
	values := g.Values(len(keys))
	for i := 0; i < len(keys); i += 10 {
		if err := srv.InsertAsync(keys[i:i+10], values[i:i+10]).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if err := srv.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	st := srv.WAL().Stats()
	if st.Appends != 12 || st.Fsyncs < st.Appends {
		t.Fatalf("wal stats: %+v (want 12 appends, per-epoch fsyncs)", st)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"pimtrie_wal_appends_total", "pimtrie_wal_fsyncs_total", "pimtrie_wal_last_seq",
		"pimtrie_checkpoint_writes_total", "pimtrie_checkpoint_keys", "pimtrie_checkpoint_last_seq",
		"pimtrie_wal_recovered_epochs",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if problems := telemetry.LintExposition(body); len(problems) > 0 {
		t.Fatalf("exposition lint:\n%s", strings.Join(problems, "\n"))
	}
}

// TestDurableRequiresRecoverable pins the construction-time check.
func TestDurableRequiresRecoverable(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("durable server over a non-recoverable index did not panic")
		}
	}()
	NewServer(pimtrie.New(4, pimtrie.Options{Seed: 1}), Options{Durable: &Durable{Log: log}})
}

// TestFailedAppendStopsServer pins the fail-stop contract. Once an
// append fails (here the log is closed under the server), the write is
// never acknowledged nor read, and every later call fails with the
// sticky error: reads, snapshot reads and writes alike. A restart then
// recovers exactly the acknowledged state.
func TestFailedAppendStopsServer(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		srv, _, err := OpenDurable(dir, wal.Options{Policy: wal.SyncEveryEpoch}, Options{SnapshotReads: true}, newRecoverableIndex)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	alpha, beta := bitstr.FromBytes([]byte("alpha")), bitstr.FromBytes([]byte("beta"))
	srv := open()
	if err := srv.InsertAsync([]Key{alpha}, []uint64{1}).Wait(); err != nil {
		t.Fatal(err)
	}
	healthSample := func() pimtrie.Health {
		srv.healthMu.Lock()
		defer srv.healthMu.Unlock()
		return srv.health
	}
	keys, model, health := srv.KeyCount(), srv.ModelMetrics(), healthSample()
	if err := srv.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	failed := srv.InsertAsync([]Key{beta}, []uint64{2}).Wait()
	if failed == nil {
		t.Fatal("insert on a closed log succeeded")
	}
	// Outside keyed reads too, the server shows the last committed epoch
	// and no snapshot, although its index still holds beta.
	if got := srv.KeyCount(); got != keys || keys != 1 {
		t.Fatalf("KeyCount %d after the failed append, want the committed %d (1)", got, keys)
	}
	if !reflect.DeepEqual(srv.ModelMetrics(), model) || !reflect.DeepEqual(healthSample(), health) {
		t.Fatal("ModelMetrics or the health sample moved with the failed append")
	}
	if snap, epoch := srv.SnapshotView(); snap != nil || epoch != 0 {
		t.Fatalf("SnapshotView (%v, %d) after the failed append, want (nil, 0)", snap, epoch)
	}
	if srv.Snapshot() != nil {
		t.Fatal("Snapshot served after the failed append")
	}
	sticky := func(what string, err error) {
		t.Helper()
		if err == nil || err.Error() != failed.Error() {
			t.Fatalf("%s after the failed append: err %v, want %v", what, err, failed)
		}
	}
	for _, k := range []Key{beta, alpha} {
		_, _, err := srv.GetAsync(k).Wait()
		sticky("Get "+k.String(), err)
		_, _, err = srv.GetAsyncWith(ReadSnapshot, k).Wait()
		sticky("snapshot Get "+k.String(), err)
		if srv.SnapshotGet([]Key{k}, make([]uint64, 1), make([]bool, 1)) {
			t.Fatalf("SnapshotGet %s served after the failed append", k)
		}
	}
	_, err := srv.LCPAsync(beta).Wait()
	sticky("LCP", err)
	sticky("Insert", srv.InsertAsync([]Key{bitstr.FromBytes([]byte("gamma"))}, []uint64{3}).Wait())
	_, err = srv.DeleteAsync(alpha).Wait()
	sticky("Delete", err)
	sticky("DurabilityErr", srv.DurabilityErr())
	srv.Close()

	srv = open()
	defer srv.Close()
	if got, want := dumpIndex(srv.ix), map[string]uint64{alpha.String(): 1}; !maps.Equal(got, want) {
		t.Fatalf("recovered %v, want the acknowledged %v", got, want)
	}
}
