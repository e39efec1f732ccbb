package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/telemetry"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/wal"
)

// req is one queued call of a formation test.
type req struct {
	op   Op
	keys []Key
	vals []uint64 // OpInsert only
}

func keysOf(op Op, ks []int) req {
	r := req{op: op}
	for _, k := range ks {
		r.keys = append(r.keys, epochKey(k))
	}
	return r
}

func ins(v uint64, ks ...int) req {
	r := keysOf(OpInsert, ks)
	for range ks {
		r.vals = append(r.vals, v)
	}
	return r
}

func del(ks ...int) req { return keysOf(OpDelete, ks) }
func get(ks ...int) req { return keysOf(OpGet, ks) }
func lcp(ks ...int) req { return keysOf(OpLCP, ks) }

// sub scans the 4-bit prefix of each named key, which several keys
// share.
func sub(ks ...int) req {
	r := keysOf(OpSubtree, ks)
	for i, k := range r.keys {
		r.keys[i] = k.Prefix(4)
	}
	return r
}

func epochKey(i int) Key { return bitstr.FromUint64(uint64(i)*0x9e3779b97f4a7c15+7, 20+i%9) }

// queueCalls puts the calls on the queue of a server built with
// newServer, whose scheduler is not running: the test forms and runs
// the epochs itself, so formation is a function of the queue alone, not
// of timing.
func queueCalls(s *Server, rs []req) []*call {
	calls := make([]*call, len(rs))
	s.mu.Lock()
	for i, r := range rs {
		calls[i] = &call{op: r.op, keys: r.keys, values: r.vals, fut: newFuture()}
		s.queue = append(s.queue, calls[i])
	}
	s.mu.Unlock()
	return calls
}

func formNext(s *Server) *epochPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	return s.formLocked()
}

// formCase is one hand-built queue and the epochs it must form.
type formCase struct {
	name     string
	maxBatch int
	queue    []req
	epochs   [][]int   // call indexes per formed epoch
	cuts     [3]uint64 // by reason: cutConflict, cutReadAfterWrite, cutMaxBatch
}

// checkFormation forms and runs every case's queue by hand, then checks
// the epochs formed, every response and the final state against the
// calls applied one by one in arrival order, the per-op key counts and
// epoch kinds in Stats, and the cut counter by reason.
func checkFormation(t *testing.T, cases []formCase) {
	const a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
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
			calls := queueCalls(s, tc.queue)
			index := map[*call]int{}
			for i, c := range calls {
				index[c] = i
			}

			var got [][]int
			var readEpochs, writeEpochs uint64
			for plan := formNext(s); plan != nil; plan = formNext(s) {
				var ep []int
				var reads, writes bool
				for _, c := range plan.calls {
					ep = append(ep, index[c])
					reads = reads || c.op.isRead()
					writes = writes || !c.op.isRead()
				}
				got = append(got, ep)
				if reads {
					readEpochs++
				}
				if writes {
					writeEpochs++
				}
				s.execute(plan)
			}
			if !reflect.DeepEqual(got, tc.epochs) {
				t.Fatalf("epochs = %v, want %v", got, tc.epochs)
			}

			// Responses and final state against the calls in arrival order.
			var nIns, nDel uint64
			for i, c := range calls {
				<-c.fut.done
				if c.fut.err != nil {
					t.Fatalf("call %d: %v", i, c.fut.err)
				}
				for j, k := range c.keys {
					switch c.op {
					case OpInsert:
						oracle.Insert(k, c.values[j])
						nIns++
					case OpDelete:
						if want := oracle.Delete(k); c.fut.found[j] != want {
							t.Errorf("call %d: Delete(key %d) found=%v, arrival order says %v", i, j, c.fut.found[j], want)
						}
						nDel++
					case OpGet:
						if wv, wok := oracle.Get(k); c.fut.found[j] != wok || c.fut.vals[j] != wv {
							t.Errorf("call %d: Get(key %d) = %d,%v, arrival order says %d,%v", i, j, c.fut.vals[j], c.fut.found[j], wv, wok)
						}
					case OpLCP:
						if want := oracle.LCPLen(k); c.fut.ints[j] != want {
							t.Errorf("call %d: LCP(key %d) = %d, arrival order says %d", i, j, c.fut.ints[j], want)
						}
					case OpSubtree:
						if want := oracle.SubtreeKeys(k); fmt.Sprint(c.fut.kvs[j]) != fmt.Sprint(want) {
							t.Errorf("call %d: Subtree(key %d) = %v, arrival order says %v", i, j, c.fut.kvs[j], want)
						}
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

			// Per-op key counts stay exact, the epoch kinds add up, and the
			// cut counter says why each epoch ended early.
			st := s.Stats()
			if st.KeysExecuted[OpInsert] != nIns || st.KeysExecuted[OpDelete] != nDel ||
				st.ReadEpochs != readEpochs || st.WriteEpochs != writeEpochs {
				t.Errorf("Stats: %d insert keys, %d delete keys, %d read epochs, %d write epochs; want %d, %d, %d, %d",
					st.KeysExecuted[OpInsert], st.KeysExecuted[OpDelete], st.ReadEpochs, st.WriteEpochs,
					nIns, nDel, readEpochs, writeEpochs)
			}
			v := reg.Varz()
			for cut, reason := range [...]string{cutConflict: "conflict", cutReadAfterWrite: "read_after_write", cutMaxBatch: "max_batch"} {
				if got := v[`pimtrie_serve_epoch_cuts_total{reason="`+reason+`"}`]; got != tc.cuts[cut] {
					t.Errorf("%s cuts = %v, want %d", reason, got, tc.cuts[cut])
				}
			}
			var executed uint64
			for _, n := range st.KeysExecuted {
				executed += n
			}
			if h := v["pimtrie_serve_epoch_keys"].(metrics.VarzHistogram); h.Count != uint64(len(tc.epochs)) || uint64(h.Sum) != executed {
				t.Errorf("epoch_keys: %d observations summing to %v, want one per epoch summing to %d", h.Count, h.Sum, executed)
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

// TestFormWriteEpoch pins the cut rule between writes — no insert
// follows a delete of the same key, capped at MaxBatch keys with calls
// admitted whole — on queues of writes alone.
func TestFormWriteEpoch(t *testing.T) {
	const a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
	checkFormation(t, []formCase{
		{name: "insert then delete of one key share an epoch",
			queue: []req{ins(1, a), del(a)}, epochs: [][]int{{0, 1}}},
		{name: "delete then insert of one key are cut",
			queue: []req{del(a), ins(1, a)}, epochs: [][]int{{0}, {1}}, cuts: [3]uint64{cutConflict: 1}},
		{name: "last duplicate insert wins across a delete of another key",
			queue: []req{ins(1, a), ins(2, a), del(b), ins(3, a)}, epochs: [][]int{{0, 1, 2, 3}}},
		{name: "deletes admitted after the set was built join it",
			queue:  []req{del(a), ins(1, b), del(b), ins(2, c), ins(3, b), del(c)},
			epochs: [][]int{{0, 1, 2, 3}, {4, 5}}, cuts: [3]uint64{cutConflict: 1}},
		{name: "a call conflicting on one key is not split",
			queue: []req{ins(1, a, b), del(a), ins(2, c, a)}, epochs: [][]int{{0, 1}, {2}}, cuts: [3]uint64{cutConflict: 1}},
		{name: "duplicate deletes: the first finds",
			queue: []req{del(a, a), ins(1, b), del(b), del(b)}, epochs: [][]int{{0, 1, 2, 3}}},
		{name: "MaxBatch admits calls whole", maxBatch: 4,
			queue:  []req{ins(1, a, b, c), del(d, e), ins(2, f), ins(3, a, b, c, d, e)},
			epochs: [][]int{{0}, {1, 2}, {3}}, cuts: [3]uint64{cutMaxBatch: 2}},
	})
}

// TestFormEpoch pins the rules that let reads share an epoch with
// writes — the epoch answers its reads first, so a read is cut only
// where arrival order puts a write it depends on before it — and the
// case that must not cut: a read admitted before a write of its key.
func TestFormEpoch(t *testing.T) {
	const a, b, c, d, e = 1, 2, 3, 4, 5
	rw := func(n uint64) [3]uint64 { return [3]uint64{cutReadAfterWrite: n} }
	checkFormation(t, []formCase{
		{name: "a get of a key an admitted insert writes is cut",
			queue: []req{ins(1, a), get(a)}, epochs: [][]int{{0}, {1}}, cuts: rw(1)},
		{name: "a get of a key an admitted delete writes is cut",
			queue: []req{del(a), get(b, a)}, epochs: [][]int{{0}, {1}}, cuts: rw(1)},
		{name: "a get of other keys joins the writes",
			queue: []req{ins(1, a), del(d), get(b, c)}, epochs: [][]int{{0, 1, 2}}},
		{name: "an lcp after any write is cut",
			queue: []req{ins(1, a), lcp(b)}, epochs: [][]int{{0}, {1}}, cuts: rw(1)},
		{name: "a subtree after any write is cut",
			queue: []req{del(b), sub(c)}, epochs: [][]int{{0}, {1}}, cuts: rw(1)},
		{name: "reads admitted before writes of their keys share the epoch",
			queue:  []req{get(a), lcp(a), sub(a), ins(1, a), del(a, d), ins(2, b)},
			epochs: [][]int{{0, 1, 2, 3, 4, 5}}},
		{name: "duplicate reads are answered once",
			queue: []req{get(a), get(a, d), lcp(d), lcp(d), sub(d), sub(d), ins(3, c)}, epochs: [][]int{{0, 1, 2, 3, 4, 5, 6}}},
		{name: "every rule in one queue",
			queue:  []req{get(a), ins(1, b), get(c), del(a), get(b), lcp(a), del(c), ins(2, c), sub(a)},
			epochs: [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7}, {8}}, cuts: [3]uint64{cutConflict: 1, cutReadAfterWrite: 2}},
		{name: "MaxBatch counts keys over all sections", maxBatch: 3,
			queue: []req{get(a, b), ins(1, c), lcp(d), lcp(e)}, epochs: [][]int{{0, 1}, {2, 3}}, cuts: [3]uint64{cutMaxBatch: 1}},
	})
}

// TestServeDedupe asserts singleflight: N identical Gets queued before
// the scheduler starts form one epoch that executes one key.
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

// phaseRecorder calls begin at the start of every phase the index
// opens.
type phaseRecorder struct{ begin func(name string) }

func (r phaseRecorder) BeginPhase(name string)     { r.begin(name) }
func (r phaseRecorder) EndPhase()                  {}
func (r phaseRecorder) RecordRound(pim.RoundTrace) {}
func (r phaseRecorder) RecordCPUWork(int)          {}

// TestMixedEpochOneMatch counts the matching passes of one epoch: reads
// of every kind and one write section share one match; a delete section
// behind an insert section matches once more.
func TestMixedEpochOneMatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		deletes bool
		matches int
	}{
		{"gets, lcps, subtrees and inserts", false, 1},
		{"gets, lcps, subtrees, inserts and deletes", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := pimtrie.New(4, pimtrie.Options{Seed: 11})
			ix.Load([]Key{epochKey(1), epochKey(2), epochKey(3), epochKey(4)}, []uint64{1, 2, 3, 4})
			matches := 0
			ix.SetRecorder(phaseRecorder{func(name string) {
				if name == "master-match" {
					matches++
				}
			}})
			s := newServer(ix, Options{})
			g := s.GetAsync(epochKey(1), epochKey(5))
			l := s.LCPAsync(epochKey(2))
			st := s.SubtreeAsync(epochKey(3).Prefix(4))
			waits := []func() error{
				func() error { _, _, err := g.Wait(); return err },
				func() error { _, err := l.Wait(); return err },
				func() error { _, err := st.Wait(); return err },
				s.InsertAsync([]Key{epochKey(6), epochKey(7)}, []uint64{6, 7}).Wait,
			}
			if tc.deletes {
				f := s.DeleteAsync(epochKey(4))
				waits = append(waits, func() error { _, err := f.Wait(); return err })
			}
			s.start()
			for _, wait := range waits {
				if err := wait(); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			if st := s.Stats(); st.ReadEpochs != 1 || st.WriteEpochs != 1 {
				t.Fatalf("%d read and %d write epochs, want one epoch holding both", st.ReadEpochs, st.WriteEpochs)
			}
			if matches != tc.matches {
				t.Fatalf("the epoch ran %d matching passes, want %d", matches, tc.matches)
			}
		})
	}
}

// TestSnapshotLandsOnEpochBoundary takes a snapshot at the start of
// every shadow update of one epoch {Insert k, Delete k}. Before the
// epoch k is absent, and after it k is absent again, so a snapshot that
// holds k saw half the epoch — a state no serial order contains.
func TestSnapshotLandsOnEpochBoundary(t *testing.T) {
	ix := newRecoverableIndex()
	k := epochKey(1)
	var seen []bool
	ix.SetRecorder(phaseRecorder{func(name string) {
		if name == "shadow" {
			_, ok := ix.Snapshot().Get(k)
			seen = append(seen, ok)
		}
	}})
	s := newServer(ix, Options{})
	insert := s.InsertAsync([]Key{k}, []uint64{1})
	remove := s.DeleteAsync(k)
	s.start()
	if err := insert.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := remove.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := s.Stats(); st.WriteEpochs != 1 {
		t.Fatalf("%d write epochs, want the insert and the delete in one", st.WriteEpochs)
	}
	if len(seen) == 0 {
		t.Fatal("no shadow update observed")
	}
	for i, ok := range seen {
		if ok {
			t.Fatalf("snapshot %d of %v holds k: it landed inside the epoch", i, seen)
		}
	}
}

// mixedEpoch queues the extra calls, then insert(1,2) delete(1)
// insert(3), on a fresh durable server over ix and forms them into one
// epoch.
func mixedEpoch(t *testing.T, ix *pimtrie.Index, extra ...req) (*Server, *epochPlan, []*call) {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncEveryEpoch})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(ix, Options{Durable: &Durable{Log: log, OwnLog: true}})
	calls := queueCalls(s, append(extra, ins(1, 1, 2), del(1), ins(3, 3)))
	plan := formNext(s)
	if len(plan.calls) != len(calls) || len(plan.batch.Inserts) != 3 || len(plan.batch.Deletes) != 1 {
		t.Fatalf("formed %d calls, %d insert keys, %d delete keys; want one epoch of %d, 3, 1",
			len(plan.calls), len(plan.batch.Inserts), len(plan.batch.Deletes), len(calls))
	}
	return s, plan, calls
}

// TestWriteEpochFailsWhole pins the half-applied epoch: when the delete
// section panics in the index after the insert section went in, or the
// append fails after both did, every future of the epoch fails, nothing
// is logged, and the durable server's DurabilityErr is set for good.
func TestWriteEpochFailsWhole(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(*Server)
		keys   int // what the index holds afterwards
	}{
		{"delete section panics", func(s *Server) {
			s.ix.SetRecorder(phaseRecorder{func(name string) {
				if name == "delete" {
					panic("injected")
				}
			}})
		}, 3},
		{"append fails", func(s *Server) { s.WAL().Close() }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, plan, calls := mixedEpoch(t, newRecoverableIndex())
			tc.inject(s)
			s.execute(plan)
			for i, c := range calls {
				<-c.fut.done
				if c.fut.err == nil {
					t.Errorf("call %d (%v) was acknowledged", i, c.op)
				}
			}
			if n := s.ix.Len(); n != tc.keys {
				t.Errorf("index holds %d keys, want %d: the epoch was to reach memory and not the log", n, tc.keys)
			}
			if n := s.KeyCount(); n != 0 {
				t.Errorf("KeyCount %d, want 0: the sample keeps the last committed epoch", n)
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
			s.ix.SetRecorder(nil)
			s.Close()
		})
	}
}

// TestWriteEpochFaultInDeleteSection crashes a module at the first PIM
// round of a mixed epoch's delete section — the delete re-match, after
// the reads were answered and the inserts applied. The index repairs
// itself and reruns the delete section alone, so the epoch must still
// commit whole: every call acknowledged, the LCP and Subtree admitted
// before the insert answering from the state before it, both write
// sections applied, one record logged with one fsync.
func TestWriteEpochFaultInDeleteSection(t *testing.T) {
	build := func(plan pimtrie.FaultPlan) *pimtrie.Index {
		ix := pimtrie.New(4, pimtrie.Options{Seed: 42, Faults: &plan})
		ix.Load([]Key{epochKey(1), epochKey(9)}, []uint64{100, 900})
		return ix
	}
	reads := []req{lcp(2), {op: OpSubtree, keys: []Key{bitstr.Empty}}}
	// Model rounds repeat exactly, so a fault-free twin running the
	// epoch's first match — the reads and the insert section — tells
	// where the delete section starts.
	dry := build(pimtrie.FaultPlan{})
	w := ins(1, 1, 2)
	if _, err := dry.Apply(pimtrie.Batch{
		LCPs: reads[0].keys, Subtrees: reads[1].keys,
		Inserts: append(w.keys, epochKey(3)), Values: []uint64{1, 1, 3},
	}); err != nil {
		t.Fatal(err)
	}
	deleteStarts := dry.Metrics().Rounds

	ix := build(pimtrie.FaultPlan{Events: []pimtrie.FaultEvent{{Round: deleteStarts, Kind: pimtrie.FaultCrash, Module: 0}}})
	s, plan, calls := mixedEpoch(t, ix, reads...)
	s.execute(plan)
	for i, c := range calls {
		<-c.fut.done
		if c.fut.err != nil {
			t.Errorf("call %d: %v", i, c.fut.err)
		}
	}
	if h := s.ix.Health(); h.Crashes != 1 || h.Recoveries != 1 {
		t.Fatalf("fault plan did not fire and recover inside the epoch: %+v", h)
	}
	// Arrival order: the reads saw keys 1 and 9 only.
	before := trie.New()
	before.Insert(epochKey(1), 100)
	before.Insert(epochKey(9), 900)
	if got, want := calls[0].fut.ints, []int{before.LCPLen(epochKey(2))}; !reflect.DeepEqual(got, want) {
		t.Errorf("LCP(key 2) = %v, arrival order says %v", got, want)
	}
	if got, want := fmt.Sprint(calls[1].fut.kvs[0]), fmt.Sprint(before.SubtreeKeys(bitstr.Empty)); got != want {
		t.Errorf("Subtree(ε) = %s, arrival order says %s", got, want)
	}
	if found := calls[3].fut.found; len(found) != 1 || !found[0] {
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
