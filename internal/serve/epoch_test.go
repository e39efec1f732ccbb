package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/telemetry"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/wal"
)

// write is one queued write call of a formation test: a delete when
// vals is nil.
type write struct {
	keys []Key
	vals []uint64
}

func ins(v uint64, ks ...int) write {
	w := write{vals: make([]uint64, len(ks))}
	for i, k := range ks {
		w.keys = append(w.keys, epochKey(k))
		w.vals[i] = v
	}
	return w
}

func del(ks ...int) write {
	var w write
	for _, k := range ks {
		w.keys = append(w.keys, epochKey(k))
	}
	return w
}

func epochKey(i int) Key { return bitstr.FromUint64(uint64(i)*0x9e3779b97f4a7c15+7, 20+i%9) }

// queueWrites puts the calls on the write FIFO of a server built with
// newServer, whose scheduler is not running: the test forms and runs
// the epochs itself, so formation is a function of the queue alone, not
// of timing.
func queueWrites(s *Server, ws []write) []*call {
	calls := make([]*call, len(ws))
	s.mu.Lock()
	for i, w := range ws {
		op := OpInsert
		if w.vals == nil {
			op = OpDelete
		}
		calls[i] = &call{op: op, keys: w.keys, values: w.vals, fut: newFuture()}
		s.writeQ = append(s.writeQ, calls[i])
	}
	s.mu.Unlock()
	return calls
}

func formWrite(s *Server) *epochPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.writeQ) == 0 {
		return nil
	}
	return s.formWriteLocked()
}

// TestFormWriteEpoch pins the cut rule — an epoch is the longest FIFO
// prefix in which no insert follows a delete of the same key, capped at
// MaxBatch keys with calls admitted whole — and, by running every
// formed epoch, that "inserts then deletes" answers exactly as the
// calls applied one by one in arrival order.
func TestFormWriteEpoch(t *testing.T) {
	const a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
	cases := []struct {
		name     string
		maxBatch int
		queue    []write
		epochs   [][]int // call indexes per formed epoch
		conflict uint64
		maxCuts  uint64
	}{
		{name: "insert then delete of one key share an epoch",
			queue: []write{ins(1, a), del(a)}, epochs: [][]int{{0, 1}}},
		{name: "delete then insert of one key are cut",
			queue: []write{del(a), ins(1, a)}, epochs: [][]int{{0}, {1}}, conflict: 1},
		{name: "last duplicate insert wins across a delete of another key",
			queue: []write{ins(1, a), ins(2, a), del(b), ins(3, a)}, epochs: [][]int{{0, 1, 2, 3}}},
		{name: "deletes admitted after the set was built join it",
			queue: []write{del(a), ins(1, b), del(b), ins(2, c), ins(3, b), del(c)}, epochs: [][]int{{0, 1, 2, 3}, {4, 5}}, conflict: 1},
		{name: "a call conflicting on one key is not split",
			queue: []write{ins(1, a, b), del(a), ins(2, c, a)}, epochs: [][]int{{0, 1}, {2}}, conflict: 1},
		{name: "duplicate deletes: the first finds",
			queue: []write{del(a, a), ins(1, b), del(b), del(b)}, epochs: [][]int{{0, 1, 2, 3}}},
		{name: "MaxBatch admits calls whole", maxBatch: 4,
			queue:  []write{ins(1, a, b, c), del(d, e), ins(2, f), ins(3, a, b, c, d, e)},
			epochs: [][]int{{0}, {1, 2}, {3}}, maxCuts: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			ix := pimtrie.New(4, pimtrie.Options{Seed: 11})
			oracle := trie.New()
			preK, preV := []Key{epochKey(a), epochKey(d)}, []uint64{100, 400}
			ix.Load(preK, preV)
			for i, k := range preK {
				oracle.Insert(k, preV[i])
			}
			s := newServer(ix, Options{MaxBatch: tc.maxBatch, Metrics: reg})
			defer s.Close()
			calls := queueWrites(s, tc.queue)
			index := map[*call]int{}
			for i, c := range calls {
				index[c] = i
			}

			var got [][]int
			for plan := formWrite(s); plan != nil; plan = formWrite(s) {
				var ep []int
				for _, c := range plan.calls {
					ep = append(ep, index[c])
				}
				got = append(got, ep)
				s.prepare(plan)
				s.execute(plan)
			}
			if !reflect.DeepEqual(got, tc.epochs) {
				t.Fatalf("epochs = %v, want %v", got, tc.epochs)
			}

			// Responses and final state against the calls in arrival order.
			for i, c := range calls {
				<-c.fut.done
				if c.fut.err != nil {
					t.Fatalf("call %d: %v", i, c.fut.err)
				}
				for j, k := range c.keys {
					if c.op == OpInsert {
						oracle.Insert(k, c.values[j])
					} else if want := oracle.Delete(k); c.fut.found[j] != want {
						t.Errorf("call %d: Delete(key %d) found=%v, arrival order says %v", i, j, c.fut.found[j], want)
					}
				}
			}
			for i := a; i <= f; i++ {
				v, ok := ix.Get([]Key{epochKey(i)})
				wv, wok := oracle.Get(epochKey(i))
				if ok[0] != wok || (wok && v[0] != wv) {
					t.Errorf("key %d = %d,%v after the epochs, arrival order says %d,%v", i, v[0], ok[0], wv, wok)
				}
			}

			// Per-op key counts stay exact and the cut counter says why.
			var nIns, nDel uint64
			for _, w := range tc.queue {
				if w.vals != nil {
					nIns += uint64(len(w.keys))
				} else {
					nDel += uint64(len(w.keys))
				}
			}
			st := s.Stats()
			if st.KeysExecuted[OpInsert] != nIns || st.KeysExecuted[OpDelete] != nDel || st.WriteEpochs != uint64(len(tc.epochs)) {
				t.Errorf("Stats: %d insert keys, %d delete keys, %d write epochs; want %d, %d, %d",
					st.KeysExecuted[OpInsert], st.KeysExecuted[OpDelete], st.WriteEpochs, nIns, nDel, len(tc.epochs))
			}
			v := reg.Varz()
			if got := v[`pimtrie_serve_write_epoch_cuts_total{reason="conflict"}`]; got != tc.conflict {
				t.Errorf("conflict cuts = %v, want %d", got, tc.conflict)
			}
			if got := v[`pimtrie_serve_write_epoch_cuts_total{reason="max_batch"}`]; got != tc.maxCuts {
				t.Errorf("max_batch cuts = %v, want %d", got, tc.maxCuts)
			}
			if h := v["pimtrie_serve_epoch_keys"].(metrics.VarzHistogram); h.Count != uint64(len(tc.epochs)) || uint64(h.Sum) != nIns+nDel {
				t.Errorf("epoch_keys: %d observations summing to %v, want one per epoch summing to %d", h.Count, h.Sum, nIns+nDel)
			}
			var body strings.Builder
			if err := reg.WritePrometheus(&body); err != nil {
				t.Fatal(err)
			}
			if problems := telemetry.LintExposition(body.String()); len(problems) > 0 {
				t.Errorf("exposition lint:\n%s", strings.Join(problems, "\n"))
			}
		})
	}
}

// TestServeDedupe asserts singleflight: N identical Gets queued before
// the scheduler starts form one read epoch that executes one key.
func TestServeDedupe(t *testing.T) {
	ix := pimtrie.New(4, pimtrie.Options{Seed: 11})
	hot := epochKey(1)
	ix.Load([]Key{hot, epochKey(2)}, []uint64{100, 200})
	s := newServer(ix, Options{})
	const n = 32
	futs := make([]*GetFuture, n)
	for i := range futs {
		futs[i] = s.GetAsync(hot)
	}
	s.start()
	defer s.Close()
	for i, f := range futs {
		vals, found, err := f.Wait()
		if err != nil || !found[0] || vals[0] != 100 {
			t.Fatalf("Get %d of the hot key = %v,%v,%v, want 100", i, vals, found, err)
		}
	}
	st := s.Stats()
	if st.KeysRequested[OpGet] != n {
		t.Fatalf("KeysRequested[get] = %d, want %d", st.KeysRequested[OpGet], n)
	}
	if st.KeysExecuted[OpGet] != 1 {
		t.Fatalf("KeysExecuted[get] = %d, want 1 (singleflight)", st.KeysExecuted[OpGet])
	}
	if st.ReadEpochs != 1 {
		t.Fatalf("ReadEpochs = %d, want 1", st.ReadEpochs)
	}
}

// mixedEpoch queues insert(a,b) delete(a) insert(c) on a fresh durable
// server over ix and forms them into one epoch.
func mixedEpoch(t *testing.T, ix *pimtrie.Index) (*Server, *epochPlan, []*call) {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncEveryEpoch})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(ix, Options{Durable: &Durable{Log: log, OwnLog: true}})
	calls := queueWrites(s, []write{ins(1, 1, 2), del(1), ins(3, 3)})
	plan := formWrite(s)
	if len(plan.calls) != len(calls) || len(plan.ins.keys) != 3 || len(plan.del.keys) != 1 {
		t.Fatalf("formed %d calls, %d insert keys, %d delete keys; want one epoch of 3, 3, 1",
			len(plan.calls), len(plan.ins.keys), len(plan.del.keys))
	}
	s.prepare(plan)
	return s, plan, calls
}

// TestWriteEpochFailsWhole pins the half-applied epoch: when the delete
// section panics in the index after the insert section went in, or the
// append fails after both did, every future of the epoch fails, nothing
// is logged, and the durable server's DurabilityErr is set for good.
func TestWriteEpochFailsWhole(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(*Server, *epochPlan)
		keys   int // what the index holds afterwards
	}{
		{"delete section panics", func(_ *Server, plan *epochPlan) { plan.del.prep = nil }, 3},
		{"append fails", func(s *Server, _ *epochPlan) { s.WAL().Close() }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, plan, calls := mixedEpoch(t, newRecoverableIndex())
			tc.inject(s, plan)
			s.execute(plan)
			for i, c := range calls {
				<-c.fut.done
				if c.fut.err == nil {
					t.Errorf("call %d (%v) was acknowledged", i, c.op)
				}
			}
			if n := s.KeyCount(); n != tc.keys {
				t.Errorf("index holds %d keys, want %d: the epoch was to reach memory and not the log", n, tc.keys)
			}
			first := s.DurabilityErr()
			if first == nil {
				t.Fatal("DurabilityErr is nil after a write epoch that memory holds and the log does not")
			}
			if st := s.WAL().Stats(); st.Appends != 0 {
				t.Errorf("%d records logged, want 0", st.Appends)
			}
			// Sticky: a later failure does not replace the first.
			s.dur.noteErr(fmt.Errorf("later"))
			if got := s.DurabilityErr(); got != first {
				t.Errorf("DurabilityErr changed from %v to %v", first, got)
			}
			s.Close()
		})
	}
}

// TestWriteEpochFaultInDeleteSection crashes a module at the first PIM
// round of a mixed epoch's delete section. The index repairs itself, so
// the epoch must still commit whole: every call acknowledged, both
// sections applied, one record logged with one fsync.
func TestWriteEpochFaultInDeleteSection(t *testing.T) {
	build := func(plan pimtrie.FaultPlan) *pimtrie.Index {
		ix := pimtrie.New(4, pimtrie.Options{Seed: 42, Faults: &plan})
		ix.Load([]Key{epochKey(1), epochKey(9)}, []uint64{100, 900})
		return ix
	}
	// Model rounds repeat exactly, so a fault-free twin tells where the
	// insert section ends.
	dry := build(pimtrie.FaultPlan{})
	w := ins(1, 1, 2)
	dry.Insert(append(w.keys, epochKey(3)), []uint64{1, 1, 3})
	deleteStarts := dry.Metrics().Rounds

	ix := build(pimtrie.FaultPlan{Events: []pimtrie.FaultEvent{{Round: deleteStarts, Kind: pimtrie.FaultCrash, Module: 0}}})
	s, plan, calls := mixedEpoch(t, ix)
	s.execute(plan)
	for i, c := range calls {
		<-c.fut.done
		if c.fut.err != nil {
			t.Errorf("call %d: %v", i, c.fut.err)
		}
	}
	if h := s.Health(); h.Crashes != 1 || h.Recoveries != 1 {
		t.Fatalf("fault plan did not fire and recover inside the epoch: %+v", h)
	}
	if found := calls[1].fut.found; len(found) != 1 || !found[0] {
		t.Errorf("Delete(key 1) found=%v, want [true]", found)
	}
	vals, ok := ix.Get([]Key{epochKey(1), epochKey(2), epochKey(3), epochKey(9)})
	if want := []bool{false, true, true, true}; !reflect.DeepEqual(ok, want) || vals[1] != 1 || vals[2] != 3 || vals[3] != 900 {
		t.Errorf("after the epoch: found=%v values=%v, want %v and 1, 3, 900", ok, vals, want)
	}
	if st := s.WAL().Stats(); st.Appends != 1 || st.Fsyncs != 1 {
		t.Errorf("log: %d appends, %d fsyncs; want 1 and 1", st.Appends, st.Fsyncs)
	}
	s.Close()
	if err := s.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
}
