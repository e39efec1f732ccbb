package serve

// The epoch scheduler. One executor goroutine owns each epoch from
// start to finish: it drains the request queues into an epoch plan — a
// write epoch is the longest prefix of the write FIFO that commutes
// into "all its inserts, then all its deletes" (formWriteLocked), a
// read epoch groups one deduplicated sub-batch per read op — runs the
// host-side preparation (Index.PrepareBatch) of each sub-batch, runs
// the plan on the index and settles every future, and only then forms
// the next epoch. The committed epoch order is the formation order, and
// a request that arrives while epoch k runs lands in epoch k+1.
//
// Consistency: the index is only touched by the executor, epochs never
// interleave, reads and writes never share an epoch, and a write epoch
// is serially equivalent to its calls in arrival order — so every
// response equals a serial replay of the committed epoch order.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pimlab/pimtrie"
)

// call is one admitted request.
type call struct {
	op     Op
	keys   []Key
	values []uint64 // OpInsert only
	fut    *future
	enq    time.Time
	slots  []int     // read epochs: per key, index into the sub-batch's unique keys
	rec    *OpRecord // history record, nil unless recording
}

// readBatch is one read epoch's deduplicated sub-batch for a single op.
type readBatch struct {
	calls []*call
	uniq  []Key
	prep  *pimtrie.PreparedBatch
}

// epochPlan is one formed epoch.
type epochPlan struct {
	write bool
	// Read epoch: sub-batches indexed by OpGet/OpLCP/OpSubtree.
	reads [3]readBatch
	// Write epoch: calls in arrival order, and the two sections the
	// executor applies — every insert call's pairs, then every delete
	// call's keys, each in arrival order.
	calls []*call
	ins   writeSection
	del   writeSection
	// stamp is a write epoch's position in the write order (1-based); the
	// snapshot path's recent-writes filter and committed counter carry it.
	stamp uint64
}

// writeSection is one op's share of a write epoch.
type writeSection struct {
	keys   []Key
	values []uint64 // insert section only
	prep   *pimtrie.PreparedBatch
}

// Server fronts a pimtrie.Index with the concurrent serving layer; see
// the package comment. Construct with NewServer, stop with Close.
type Server struct {
	ix   *pimtrie.Index
	opts Options

	mu           sync.Mutex
	readQ        [3][]*call // per read op FIFO
	writeQ       []*call    // mixed insert/delete FIFO, arrival order
	closed       bool
	formedWrites uint64 // write epochs formed so far
	hist         []*EpochRecord
	stats        Stats
	idBuf        []byte   // scratch for appendKeyID, reused under mu
	prefixLoad   []uint64 // per-prefix executed keys (Options.PrefixLoadBits)

	kick chan struct{} // executor wake-up, capacity 1
	wg   sync.WaitGroup

	// Snapshot read path (Options.SnapshotReads); see snapshot.go.
	snapFilter    *writeFilter              // recent-writes filter, nil when disabled
	pub           atomic.Pointer[snapState] // published (flat, stamp) pair
	committedW    atomic.Uint64             // write epochs committed on the index
	snapDirty     chan struct{}             // publisher wake-up, capacity 1
	snapKeys      atomic.Uint64             // keys served from the snapshot
	snapFallbacks atomic.Uint64             // ReadSnapshot keys bounced to the epoch path

	met *serveMetrics // nil unless Options.Metrics is set
	dur *durableState // nil unless Options.Durable is set

	// health is the post-epoch Index.Health sample behind Server.Health;
	// written only by the goroutine that owns the index. keyCount and
	// model are sampled on the same schedule for Server.KeyCount and
	// Server.ModelMetrics.
	healthMu sync.Mutex
	health   pimtrie.Health
	keyCount int
	model    pimtrie.Metrics
}

// NewServer starts the serving layer over ix. The Server owns all
// index execution from now on: direct Index batch calls concurrent with
// a live Server panic by design (the index's single-flight guard).
func NewServer(ix *pimtrie.Index, opts Options) *Server {
	s := newServer(ix, opts)
	s.start()
	return s
}

// newServer builds a Server whose scheduler goroutines are not running
// yet; tests form and execute epochs on it by hand.
func newServer(ix *pimtrie.Index, opts Options) *Server {
	s := &Server{
		ix:   ix,
		opts: opts.withDefaults(),
		kick: make(chan struct{}, 1),
	}
	if s.opts.PrefixLoadBits > 0 {
		s.prefixLoad = make([]uint64, 1<<uint(s.opts.PrefixLoadBits))
	}
	if s.opts.Metrics != nil {
		s.met = newServeMetrics(s.opts.Metrics, s.opts.MetricLabels)
	}
	if s.opts.Durable != nil {
		s.dur = newDurableState(ix, *s.opts.Durable, s.opts.Metrics, s.opts.MetricLabels)
		s.opts.Durable = nil // s.dur.cfg is the server's copy, without the recovery image
	}
	if s.opts.SnapshotReads {
		if !ix.Health().Recoverable {
			panic("serve: Options.SnapshotReads requires a recoverable index (set pimtrie.Options.Recoverable: snapshots flatten the host shadow)")
		}
		s.snapFilter = newWriteFilter(s.opts.SnapshotFilterBits)
		s.snapDirty = make(chan struct{}, 1)
		s.publishSnapshot() // a snapshot is live before the first request
	}
	s.sampleHealth() // baseline before the scheduler goroutines exist
	return s
}

// start launches the scheduler goroutines.
func (s *Server) start() {
	if s.snapDirty != nil {
		s.wg.Add(1)
		go s.publisher()
	}
	s.wg.Add(1)
	go s.executor()
}

// Close drains every queued request, waits for the final epoch to
// commit, and stops the scheduler goroutines. On a durable server it
// then drains the background checkpointer and fsyncs the WAL, so
// every acknowledged write is on stable storage when Close returns
// regardless of sync policy. Requests submitted after Close fail with
// ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wake()
	s.wg.Wait()
	if s.dur != nil {
		s.dur.shutdown()
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.SnapshotKeys = s.snapKeys.Load()
	st.SnapshotFallbacks = s.snapFallbacks.Load()
	return st
}

// History returns the committed epoch records (Options.RecordHistory).
// Call after Close; records of uncommitted epochs have unfilled
// responses until their futures resolve.
func (s *Server) History() []*EpochRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist
}

// wake nudges the executor to look at the queues again.
func (s *Server) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// submit admits one request: resolve trivially or enqueue for the
// executor.
func (s *Server) submit(op Op, keys []Key, values []uint64) *future {
	f := newFuture()
	if len(keys) == 0 {
		s.resolveEmpty(op, f)
		return f
	}
	c := &call{op: op, keys: keys, values: values, fut: f, enq: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		f.fail(ErrClosed)
		return f
	}
	s.stats.Requests[op]++
	s.stats.KeysRequested[op] += uint64(len(keys))
	if s.met != nil {
		s.met.requests[op].Inc()
		s.met.keysReq[op].Add(uint64(len(keys)))
	}
	if op.isRead() {
		s.readQ[op] = append(s.readQ[op], c)
	} else {
		s.writeQ = append(s.writeQ, c)
	}
	if s.met != nil {
		s.met.queueDepth.Add(1)
	}
	s.mu.Unlock()
	s.wake()
	return f
}

func (s *Server) resolveEmpty(op Op, f *future) {
	switch op {
	case OpGet:
		f.vals, f.found = []uint64{}, []bool{}
	case OpLCP:
		f.ints = []int{}
	case OpSubtree:
		f.kvs = [][]KV{}
	case OpDelete:
		f.found = []bool{}
	}
	f.settle()
}

// executor owns each epoch from start to finish: form it from
// everything queued, prepare it, run it on the index and settle its
// futures — then form the next. Once the server is closed and drained
// it stops the snapshot publisher, whose final publish then captures
// the drained state.
func (s *Server) executor() {
	defer s.wg.Done()
	for plan := s.nextPlan(); plan != nil; plan = s.nextPlan() {
		s.prepare(plan)
		s.execute(plan)
	}
	if s.snapDirty != nil {
		close(s.snapDirty)
	}
}

// finish resolves one call exactly once; latency is observed only by
// the resolution winner, keeping observations == admitted requests.
func (s *Server) finish(c *call) {
	if c.fut.state.CompareAndSwap(futPending, futSettled) {
		s.observeLatency(c)
		close(c.fut.done)
	}
}

// finishErr is finish with an error.
func (s *Server) finishErr(c *call, err error) {
	if c.fut.state.CompareAndSwap(futPending, futSettled) {
		c.fut.err = err
		s.observeLatency(c)
		close(c.fut.done)
	}
}

// deliver settles an epoch's resolved calls.
func (s *Server) deliver(calls []*call) {
	for _, c := range calls {
		s.finish(c)
	}
}

// pendingLocked reports whether any request is queued.
func (s *Server) pendingLocked() bool {
	for op := range s.readQ {
		if len(s.readQ[op]) > 0 {
			return true
		}
	}
	return len(s.writeQ) > 0
}

// nextPlan blocks until requests are pending, then forms the next epoch
// from everything queued at that moment: there is no timer and no
// controller, coalescing comes from the previous epoch's run time
// alone. It returns nil when the server is closed and fully drained.
func (s *Server) nextPlan() *epochPlan {
	for {
		s.mu.Lock()
		if s.pendingLocked() {
			plan := s.formLocked()
			s.mu.Unlock()
			return plan
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil
		}
		<-s.kick
	}
}

// formLocked removes the next epoch's requests from the queues. Side
// choice is oldest-first between the read side and the write side, so
// neither starves.
func (s *Server) formLocked() *epochPlan {
	var oldestRead, oldestWrite time.Time
	haveRead := false
	for op := range s.readQ {
		if q := s.readQ[op]; len(q) > 0 && (!haveRead || q[0].enq.Before(oldestRead)) {
			oldestRead, haveRead = q[0].enq, true
		}
	}
	haveWrite := len(s.writeQ) > 0
	if haveWrite {
		oldestWrite = s.writeQ[0].enq
	}
	if haveWrite && (!haveRead || oldestWrite.Before(oldestRead)) {
		return s.formWriteLocked()
	}
	return s.formReadLocked()
}

// formWriteLocked takes the longest prefix of the write FIFO that is
// serially equivalent to "all its inserts, then all its deletes",
// capped at MaxBatch keys (calls are admitted whole, always at least
// one). Moving a delete behind a later insert changes nothing unless
// both touch one key, so the prefix is cut only at an insert of a key
// that a delete already admitted to this epoch touches: delete→insert
// of one key is the one order the two batches cannot reproduce.
// insert→delete of one key already is the batch order; duplicate
// inserts stay last-wins and duplicate deletes first-finds inside the
// index, as in a same-op batch. The conflict set is built only when an
// insert follows a delete, so an epoch of one op never pays for it; it
// holds key hashes, so a collision can only cut an epoch early.
func (s *Server) formWriteLocked() *epochPlan {
	plan := &epochPlan{write: true}
	var deleted map[uint64]struct{} // keyHash of plan.del.keys[:hashed], filled when an insert has to look
	hashed := 0
	cut := -1 // cutConflict or cutMaxBatch once the prefix is cut short
	i := 0
admit:
	for ; i < len(s.writeQ); i++ {
		c := s.writeQ[i]
		if total := len(plan.ins.keys) + len(plan.del.keys); total > 0 && total+len(c.keys) > s.opts.MaxBatch {
			cut = cutMaxBatch
			break
		}
		if c.op == OpDelete {
			plan.del.keys = append(plan.del.keys, c.keys...)
		} else {
			if hashed < len(plan.del.keys) {
				if deleted == nil {
					deleted = make(map[uint64]struct{}, len(plan.del.keys))
				}
				for _, k := range plan.del.keys[hashed:] {
					deleted[keyHash(k)] = struct{}{}
				}
				hashed = len(plan.del.keys)
			}
			if hashed > 0 {
				for _, k := range c.keys {
					if _, hit := deleted[keyHash(k)]; hit {
						cut = cutConflict
						break admit
					}
				}
			}
			plan.ins.keys = append(plan.ins.keys, c.keys...)
			plan.ins.values = append(plan.ins.values, c.values...)
		}
		plan.calls = append(plan.calls, c)
	}
	s.writeQ = append(s.writeQ[:0], s.writeQ[i:]...)
	s.formedWrites++
	plan.stamp = s.formedWrites
	s.stats.WriteEpochs++
	s.notePrefixLoadLocked(plan.ins.keys)
	s.notePrefixLoadLocked(plan.del.keys)
	s.noteExecutedLocked(OpInsert, len(plan.ins.keys))
	s.noteExecutedLocked(OpDelete, len(plan.del.keys))
	if s.met != nil {
		s.met.writeEpochs.Inc()
		s.met.epochKeys.Observe(float64(len(plan.ins.keys) + len(plan.del.keys)))
		if cut >= 0 {
			s.met.writeCuts[cut].Inc()
		}
		s.met.noteFormed(plan.calls, time.Now())
	}
	if s.opts.RecordHistory {
		rec := &EpochRecord{Write: true}
		for _, c := range plan.calls {
			c.rec = &OpRecord{Op: c.op, Keys: c.keys, Values: c.values}
			rec.Ops = append(rec.Ops, c.rec)
		}
		s.hist = append(s.hist, rec)
	}
	return plan
}

// appendKeyID appends k's canonical map identity — bit length plus
// payload words (tail bits are always zeroed by bitstr) — to buf.
// Callers reuse one scratch buffer under Server.mu; map lookups via
// string(buf) do not allocate, only insertions intern the string.
func appendKeyID(buf []byte, k Key) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k.Len()))
	for _, w := range k.RawWords() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// formReadLocked drains up to MaxBatch unique keys per read op into one
// epoch, deduplicating identical keys within each sub-batch
// (singleflight): every request records, per key, the slot of its
// unique representative.
func (s *Server) formReadLocked() *epochPlan {
	plan := &epochPlan{}
	var rec *EpochRecord
	if s.opts.RecordHistory {
		rec = &EpochRecord{}
	}
	for op := 0; op < 3; op++ {
		q := s.readQ[op]
		if len(q) == 0 {
			continue
		}
		rb := &plan.reads[op]
		slot := make(map[string]int, len(q))
		// Slab the per-call slot slices: one allocation per sub-batch.
		nkeys := 0
		for _, c := range q {
			nkeys += len(c.keys)
		}
		slab := make([]int, nkeys)
		i := 0
		for ; i < len(q); i++ {
			c := q[i]
			if len(rb.uniq) > 0 && len(rb.uniq)+len(c.keys) > s.opts.MaxBatch {
				break // admit calls whole; keys of one call stay in one epoch
			}
			c.slots = slab[:len(c.keys):len(c.keys)]
			slab = slab[len(c.keys):]
			for j, k := range c.keys {
				s.idBuf = appendKeyID(s.idBuf[:0], k)
				si, ok := slot[string(s.idBuf)]
				if !ok {
					si = len(rb.uniq)
					slot[string(s.idBuf)] = si
					rb.uniq = append(rb.uniq, k)
				}
				c.slots[j] = si
			}
			rb.calls = append(rb.calls, c)
			if rec != nil {
				c.rec = &OpRecord{Op: Op(op), Keys: c.keys}
				rec.Ops = append(rec.Ops, c.rec)
			}
		}
		s.readQ[op] = append(q[:0], q[i:]...)
		s.notePrefixLoadLocked(rb.uniq)
		s.noteExecutedLocked(Op(op), len(rb.uniq))
		admitted := 0
		for _, c := range rb.calls {
			admitted += len(c.keys)
		}
		s.stats.DedupedKeys += uint64(admitted - len(rb.uniq))
		if s.met != nil {
			s.met.deduped.Add(uint64(admitted - len(rb.uniq)))
			s.met.epochKeys.Observe(float64(len(rb.uniq)))
			s.met.noteFormed(rb.calls, time.Now())
		}
	}
	s.stats.ReadEpochs++
	if s.met != nil {
		s.met.readEpochs.Inc()
		s.met.updateDedupRatio()
	}
	if rec != nil {
		s.hist = append(s.hist, rec)
	}
	return plan
}

// notePrefixLoadLocked counts an epoch's unique executed keys into the
// per-prefix load buckets. Caller holds s.mu. The buckets are atomics
// because the lock-free snapshot read path accounts its served keys
// into the same array without taking the lock (noteSnapshotServed).
func (s *Server) notePrefixLoadLocked(keys []Key) {
	if s.prefixLoad == nil {
		return
	}
	for _, k := range keys {
		atomic.AddUint64(&s.prefixLoad[k.PrefixIndex(s.opts.PrefixLoadBits)], 1)
	}
}

// PrefixLoad copies the cumulative per-prefix executed-key counters
// into dst (allocating when dst is too short) and returns it, along
// with the number of epochs committed so far — the consumer diffs two
// snapshots to get a per-interval, per-key-range load profile. Bucket i
// counts unique keys whose first PrefixLoadBits bits index i
// (bitstr.PrefixIndex order: buckets are contiguous lexicographic key
// ranges). It returns (nil, epochs) when Options.PrefixLoadBits is 0.
// Safe to call from any goroutine while the server runs.
func (s *Server) PrefixLoad(dst []uint64) ([]uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epochs := s.stats.ReadEpochs + s.stats.WriteEpochs
	if s.prefixLoad == nil {
		return nil, epochs
	}
	if cap(dst) < len(s.prefixLoad) {
		dst = make([]uint64, len(s.prefixLoad))
	}
	dst = dst[:len(s.prefixLoad)]
	for i := range s.prefixLoad {
		dst[i] = atomic.LoadUint64(&s.prefixLoad[i])
	}
	return dst, epochs
}

func (s *Server) noteExecutedLocked(op Op, uniq int) {
	s.stats.KeysExecuted[op] += uint64(uniq)
	if uniq > s.stats.MaxEpochKeys {
		s.stats.MaxEpochKeys = uniq
	}
	if s.met != nil {
		s.met.keysExec[op].Add(uint64(uniq))
	}
}

// prepare runs the host-side phase-A preparation of every sub-batch in
// the plan, timed apart from the PIM rounds that execute then runs.
func (s *Server) prepare(plan *epochPlan) {
	if s.met != nil {
		start := time.Now()
		defer func() { s.met.prepareSec.Observe(time.Since(start).Seconds()) }()
	}
	if plan.write {
		for _, sec := range []*writeSection{&plan.ins, &plan.del} {
			if len(sec.keys) > 0 {
				sec.prep = s.ix.PrepareBatch(sec.keys)
			}
		}
		return
	}
	for op := range plan.reads {
		if rb := &plan.reads[op]; len(rb.uniq) > 0 {
			rb.prep = s.ix.PrepareBatch(rb.uniq)
		}
	}
}

// execute commits one epoch on the index and settles every future of
// it before returning. An index panic (e.g. an unrecoverable injected
// fault) fails the epoch's futures instead of killing the scheduler.
func (s *Server) execute(plan *epochPlan) {
	defer s.sampleHealth()
	if s.met != nil {
		start := time.Now()
		defer func() { s.met.executeSec.Observe(time.Since(start).Seconds()) }()
	}
	defer func() {
		if r := recover(); r != nil {
			// Fail whatever the epoch had not already resolved. finishErr
			// is CAS-guarded, so futures settled before the panic
			// (earlier sub-batches of this read epoch) are left alone
			// instead of being double-closed.
			err := fmt.Errorf("serve: index failure: %v", r)
			if plan.write {
				if s.dur != nil {
					s.dur.noteErr(err) // see executeWrite: memory may be ahead of the log
				}
				for _, c := range plan.calls {
					s.finishErr(c, err)
				}
				return
			}
			for op := range plan.reads {
				for _, c := range plan.reads[op].calls {
					s.finishErr(c, err)
				}
			}
		}
	}()
	if plan.write {
		s.executeWrite(plan)
		return
	}
	s.executeRead(plan)
}

// executeWrite applies a write epoch — insert section, then delete
// section — under one write stamp, logs it as one record and resolves
// every call at once. The epoch is all-or-nothing towards its callers:
// if either section panics in the index (execute recovers it) or the
// append fails, every future fails and nothing is logged. The index
// may then hold the insert section without the delete section; a
// durable server records either failure as its sticky DurabilityErr,
// because its memory is now ahead of its log and a restart rolls the
// epoch back.
func (s *Server) executeWrite(plan *epochPlan) {
	var found []bool
	if len(plan.ins.keys) > 0 {
		s.ix.InsertPrepared(plan.ins.prep, plan.ins.values)
	}
	if len(plan.del.keys) > 0 {
		found = s.ix.DeletePrepared(plan.del.prep)
	}
	// Snapshot-path ordering: stamp the recent-writes filter, THEN
	// advance the committed-write counter, THEN (below) acknowledge.
	// A reader that observed this write as acked therefore finds its
	// filter stamp already in place, so it either falls back to the
	// epoch path or reads a snapshot that contains the write — never a
	// stale snapshot answer for an acknowledged key.
	if s.snapFilter != nil {
		for _, keys := range [][]Key{plan.ins.keys, plan.del.keys} {
			for _, k := range keys {
				s.snapFilter.note(keyHash(k), plan.stamp)
			}
		}
		s.committedW.Store(plan.stamp)
		select {
		case s.snapDirty <- struct{}{}:
		default: // publisher already pending; it reloads the counter
		}
	}
	// Log-before-ack: the epoch reaches the WAL before any caller
	// observes it as committed, so an acknowledged write survives the
	// process. On append failure the futures fail — the in-memory
	// index is ahead of the log at that point and a restart would
	// roll the epoch back, so it must not be acknowledged.
	if s.dur != nil {
		if err := s.dur.commitEpoch(s.ix, plan); err != nil {
			err = fmt.Errorf("serve: wal append: %w", err)
			for _, c := range plan.calls {
				s.finishErr(c, err)
			}
			return
		}
	}
	off := 0
	for _, c := range plan.calls {
		if c.op != OpDelete {
			continue
		}
		c.fut.found = found[off : off+len(c.keys) : off+len(c.keys)]
		if c.rec != nil {
			c.rec.Found = c.fut.found
		}
		off += len(c.keys)
	}
	s.deliver(plan.calls)
}

// slabKeys sums the requested key counts of a sub-batch's calls, so
// result distribution can carve per-call views out of one allocation.
func slabKeys(calls []*call) int {
	n := 0
	for _, c := range calls {
		n += len(c.keys)
	}
	return n
}

func (s *Server) executeRead(plan *epochPlan) {
	if rb := &plan.reads[OpGet]; len(rb.uniq) > 0 {
		vals, found := s.ix.GetPrepared(rb.prep)
		nslab := slabKeys(rb.calls)
		vslab := make([]uint64, nslab)
		fslab := make([]bool, nslab)
		for _, c := range rb.calls {
			n := len(c.keys)
			c.fut.vals, vslab = vslab[:n:n], vslab[n:]
			c.fut.found, fslab = fslab[:n:n], fslab[n:]
			for j, si := range c.slots {
				c.fut.vals[j], c.fut.found[j] = vals[si], found[si]
			}
			if c.rec != nil {
				c.rec.Vals, c.rec.Found = c.fut.vals, c.fut.found
			}
		}
		s.deliver(rb.calls)
	}
	if rb := &plan.reads[OpLCP]; len(rb.uniq) > 0 {
		lcps := s.ix.LCPPrepared(rb.prep)
		islab := make([]int, slabKeys(rb.calls))
		for _, c := range rb.calls {
			n := len(c.keys)
			c.fut.ints, islab = islab[:n:n], islab[n:]
			for j, si := range c.slots {
				c.fut.ints[j] = lcps[si]
			}
			if c.rec != nil {
				c.rec.LCPs = c.fut.ints
			}
		}
		s.deliver(rb.calls)
	}
	if rb := &plan.reads[OpSubtree]; len(rb.uniq) > 0 {
		kvs := s.ix.SubtreesPrepared(rb.prep)
		for _, c := range rb.calls {
			c.fut.kvs = make([][]KV, len(c.keys))
			for j, si := range c.slots {
				c.fut.kvs[j] = kvs[si]
			}
			if c.rec != nil {
				c.rec.KVs = c.fut.kvs
			}
		}
		s.deliver(rb.calls)
	}
}
