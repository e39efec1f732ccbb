package serve

// The epoch scheduler. Every admitted call joins one arrival-order
// queue. One executor goroutine owns each epoch from start to finish:
// it takes the longest prefix of the queue that one index batch answers
// exactly as the calls one by one would have been answered
// (formLocked), runs it with one Index.Apply, settles every future, and
// only then forms the next epoch. The committed epoch order is the
// formation order, and a request that arrives while epoch k runs lands
// in epoch k+1.
//
// Consistency: the index is only touched by the executor, epochs never
// interleave, and an epoch is serially equivalent to its calls in
// arrival order — so every response equals a serial replay of the
// committed epochs, call by call.

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
	slots  []int     // reads: per key, index into its section's unique keys
	rec    *OpRecord // history record, nil unless recording
}

// epochPlan is one formed epoch: its calls in arrival order and the one
// index batch that answers them — per read op the deduplicated keys of
// its calls, then every insert call's pairs and every delete call's
// keys, each in arrival order.
type epochPlan struct {
	calls []*call
	batch pimtrie.Batch
	// stamp is the epoch's position among the epochs that write
	// (1-based), 0 for an epoch of reads only; the snapshot path's
	// recent-writes filter and committed counter carry it.
	stamp uint64
}

// Server fronts a pimtrie.Index with the concurrent serving layer; see
// the package comment. Construct with NewServer, stop with Close.
type Server struct {
	ix   *pimtrie.Index
	opts Options

	mu     sync.Mutex
	queue  []*call // admitted calls not yet in an epoch, arrival order
	closed bool
	hist   []*EpochRecord
	stats  Stats
	idBuf  []byte // scratch for appendKeyID, reused under mu

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
	// stopped is the error a durable write epoch failed with: once set,
	// every queued and later call fails with it (see execute).
	stopped atomic.Pointer[error]

	// health is the post-epoch Index.Health sample the health
	// instruments diff against; written only by the goroutine that owns
	// the index. keyCount and model are sampled on the same schedule for
	// Server.KeyCount and Server.ModelMetrics.
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
		s.snapFilter = new(writeFilter)
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

// wake nudges the executor to look at the queue again.
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
	if err := s.stopErr(); err != nil {
		s.mu.Unlock()
		f.fail(err)
		return f
	}
	s.stats.Requests[op]++
	s.stats.KeysRequested[op] += uint64(len(keys))
	if s.met != nil {
		s.met.requests[op].Inc()
		s.met.keysReq[op].Add(uint64(len(keys)))
		s.met.queueDepth.Add(1)
	}
	s.queue = append(s.queue, c)
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
// everything queued, run it on the index and settle its futures — then
// form the next. Once the server is closed and drained it stops the
// snapshot publisher, whose final publish then captures the drained
// state.
func (s *Server) executor() {
	defer s.wg.Done()
	for plan := s.nextPlan(); plan != nil; plan = s.nextPlan() {
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

// nextPlan blocks until requests are pending, then forms the next epoch
// from everything queued at that moment: there is no timer and no
// controller, coalescing comes from the previous epoch's run time
// alone. It returns nil when the server is closed and fully drained.
func (s *Server) nextPlan() *epochPlan {
	for {
		s.mu.Lock()
		if len(s.queue) > 0 {
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

// keySet is the set of key hashes of one growing batch section; it
// hashes the section's new keys only when a lookup needs them.
type keySet struct {
	m      map[uint64]struct{}
	hashed int // keys of the section already in m
}

// hits reports whether any of keys is in sec.
func (ks *keySet) hits(keys, sec []Key) bool {
	if len(sec) == 0 {
		return false
	}
	if ks.m == nil {
		ks.m = make(map[uint64]struct{}, len(sec))
	}
	for _, k := range sec[ks.hashed:] {
		ks.m[keyHash(k)] = struct{}{}
	}
	ks.hashed = len(sec)
	for _, k := range keys {
		if _, hit := ks.m[keyHash(k)]; hit {
			return true
		}
	}
	return false
}

// formLocked removes the next epoch from the queue: its longest prefix
// that is serially equivalent to "its reads, then its inserts, then its
// deletes", capped at MaxBatch keys over all sections (calls are
// admitted whole, always at least one). Calls on different keys
// commute, so the prefix is cut only where a call meets an admitted one
// in an order the sections cannot reproduce:
//   - an insert of a key an admitted delete touches (delete→insert);
//   - a Get of a key an admitted insert or delete touches (write→read);
//   - an LCP or Subtree once any write is admitted: its answer depends on
//     keys it does not name.
//
// Everything else already is the section order, or commutes into it: a
// read admitted before a write of its key is answered before it,
// insert→delete of one key is the section order, and inside a section
// the index keeps duplicates in arrival order (inserts last-wins,
// deletes first-finds). The key-hash sets are built only once a check
// needs them, so an epoch that never meets a conflict never pays for
// one; a hash collision can only cut an epoch early.
func (s *Server) formLocked() *epochPlan {
	plan := &epochPlan{}
	b := &plan.batch
	var inserted, deleted keySet
	var slot [OpSubtree + 1]map[string]int // per read op: key identity → index into its section
	cut := -1                              // why the prefix ended before the queue did
	readKeys := 0                          // read keys admitted, before dedupe
	i := 0
	for ; i < len(s.queue); i++ {
		c := s.queue[i]
		total := len(b.Gets) + len(b.LCPs) + len(b.Subtrees) + len(b.Inserts) + len(b.Deletes)
		switch {
		case total > 0 && total+len(c.keys) > s.opts.MaxBatch:
			cut = cutMaxBatch
		case c.op == OpInsert && deleted.hits(c.keys, b.Deletes):
			cut = cutConflict
		case c.op == OpGet && (inserted.hits(c.keys, b.Inserts) || deleted.hits(c.keys, b.Deletes)):
			cut = cutReadAfterWrite
		case (c.op == OpLCP || c.op == OpSubtree) && len(b.Inserts)+len(b.Deletes) > 0:
			cut = cutReadAfterWrite
		}
		if cut >= 0 {
			break
		}
		switch c.op {
		case OpInsert:
			b.Inserts = append(b.Inserts, c.keys...)
			b.Values = append(b.Values, c.values...)
		case OpDelete:
			b.Deletes = append(b.Deletes, c.keys...)
		default:
			sec := readSection(b, c.op)
			if slot[c.op] == nil {
				slot[c.op] = make(map[string]int)
			}
			c.slots = make([]int, len(c.keys))
			for j, k := range c.keys {
				s.idBuf = appendKeyID(s.idBuf[:0], k)
				si, ok := slot[c.op][string(s.idBuf)]
				if !ok {
					si = len(*sec)
					slot[c.op][string(s.idBuf)] = si
					*sec = append(*sec, k)
				}
				c.slots[j] = si
			}
			readKeys += len(c.keys)
		}
		plan.calls = append(plan.calls, c)
	}
	s.queue = append(s.queue[:0], s.queue[i:]...)
	s.noteFormedLocked(plan, readKeys, cut)
	return plan
}

// readSection returns the batch section of a read op.
func readSection(b *pimtrie.Batch, op Op) *[]Key {
	switch op {
	case OpGet:
		return &b.Gets
	case OpLCP:
		return &b.LCPs
	}
	return &b.Subtrees
}

// noteFormedLocked stamps a formed epoch and counts it: per-op executed
// keys, the epoch's kinds, dedupe, and — with metrics — its size,
// linger and why it was cut.
func (s *Server) noteFormedLocked(plan *epochPlan, readKeys, cut int) {
	b := &plan.batch
	reads := len(b.Gets) + len(b.LCPs) + len(b.Subtrees)
	writes := len(b.Inserts) + len(b.Deletes)
	if writes > 0 {
		s.stats.WriteEpochs++
		plan.stamp = s.stats.WriteEpochs
	}
	if reads > 0 {
		s.stats.ReadEpochs++
	}
	s.stats.DedupedKeys += uint64(readKeys - reads)
	s.stats.MaxEpochKeys = max(s.stats.MaxEpochKeys, reads+writes)
	for op, keys := range [numOps][]Key{b.Gets, b.LCPs, b.Subtrees, b.Inserts, b.Deletes} {
		s.stats.KeysExecuted[op] += uint64(len(keys))
		if s.met != nil {
			s.met.keysExec[op].Add(uint64(len(keys)))
		}
	}
	if s.met != nil {
		if reads > 0 {
			s.met.readEpochs.Inc()
			s.met.deduped.Add(uint64(readKeys - reads))
			s.met.updateDedupRatio()
		}
		if writes > 0 {
			s.met.writeEpochs.Inc()
		}
		s.met.epochKeys.Observe(float64(reads + writes))
		if cut >= 0 {
			s.met.cuts[cut].Inc()
		}
		s.met.noteFormed(plan.calls, time.Now())
	}
	if s.opts.RecordHistory {
		rec := &EpochRecord{}
		for _, c := range plan.calls {
			c.rec = &OpRecord{Op: c.op, Keys: c.keys, Values: c.values}
			rec.Ops = append(rec.Ops, c.rec)
		}
		s.hist = append(s.hist, rec)
	}
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

// apply runs an epoch's batch on the index, turning a panic in the
// index into an error like the fault errors Apply returns.
func (s *Server) apply(b pimtrie.Batch) (res pimtrie.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return s.ix.Apply(b)
}

// execute commits one epoch with one Index.Apply and settles every
// future of it before returning: the reads first; then, once the write
// sections are logged as one record, the writes — so a read never waits
// for an fsync. The write keys stamp the recent-writes filter before
// Apply, and the committed-write counter advances only after the append
// returns, so no snapshot reader sees an unlogged write. If Apply fails
// every future fails. A durable server fails stop (failStop) when the
// append or its fsync fails, or when Apply fails on a write epoch: its
// memory is then ahead of its log. The health, key-count and model
// sample is taken before the epoch's writes settle, so a caller that
// waited on a write reads its effect; on a durable write epoch it waits
// for the append, so a failed write never shows there.
func (s *Server) execute(plan *epochPlan) {
	if s.met != nil {
		start := time.Now()
		defer func() { s.met.executeSec.Observe(time.Since(start).Seconds()) }()
	}
	if plan.stamp != 0 && s.snapFilter != nil {
		for _, keys := range [][]Key{plan.batch.Inserts, plan.batch.Deletes} {
			for _, k := range keys {
				s.snapFilter.note(keyHash(k), plan.stamp)
			}
		}
	}
	res, err := s.apply(plan.batch)
	durableWrite := plan.stamp != 0 && s.dur != nil
	if !durableWrite {
		s.sampleHealth()
	}
	if err != nil {
		err = fmt.Errorf("serve: index failure: %w", err)
		if durableWrite {
			s.failStop(plan, err)
			return
		}
		for _, c := range plan.calls {
			s.finishErr(c, err)
		}
		return
	}
	// Result slabs: every call's answers are views of one allocation per
	// op.
	var n [numOps]int
	for _, c := range plan.calls {
		n[c.op] += len(c.keys)
	}
	vals, found, lcps := make([]uint64, n[OpGet]), make([]bool, n[OpGet]), make([]int, n[OpLCP])
	deleted := res.Deleted
	for _, c := range plan.calls {
		k := len(c.keys)
		switch c.op {
		case OpGet:
			c.fut.vals, vals = vals[:k:k], vals[k:]
			c.fut.found, found = found[:k:k], found[k:]
			for j, si := range c.slots {
				c.fut.vals[j], c.fut.found[j] = res.Values[si], res.Found[si]
			}
			if c.rec != nil {
				c.rec.Vals, c.rec.Found = c.fut.vals, c.fut.found
			}
		case OpLCP:
			c.fut.ints, lcps = lcps[:k:k], lcps[k:]
			for j, si := range c.slots {
				c.fut.ints[j] = res.LCPs[si]
			}
			if c.rec != nil {
				c.rec.LCPs = c.fut.ints
			}
		case OpSubtree:
			c.fut.kvs = make([][]KV, k)
			for j, si := range c.slots {
				c.fut.kvs[j] = res.Subtrees[si]
			}
			if c.rec != nil {
				c.rec.KVs = c.fut.kvs
			}
		case OpDelete:
			c.fut.found, deleted = deleted[:k:k], deleted[k:]
			if c.rec != nil {
				c.rec.Found = c.fut.found
			}
		}
		if c.op.isRead() {
			s.finish(c)
		}
	}
	if plan.stamp == 0 {
		return
	}
	// Log-before-ack: the epoch's writes reach the WAL before any caller
	// or snapshot observes them as committed, so an acknowledged write
	// survives the process and a failed one is never read.
	if durableWrite {
		if err := s.dur.commitEpoch(s.ix, plan); err != nil {
			s.failStop(plan, fmt.Errorf("serve: wal append: %w", err))
			return
		}
		s.sampleHealth()
	}
	if s.snapFilter != nil {
		s.committedW.Store(plan.stamp)
		select {
		case s.snapDirty <- struct{}{}:
		default: // publisher already pending; it reloads the counter
		}
	}
	for _, c := range plan.calls {
		if !c.op.isRead() {
			s.finish(c)
		}
	}
}

// failStop stops a durable server on err: it becomes the sticky
// DurabilityErr, and plan's pending calls, every queued call and every
// call submitted from now on fail with it, reads included, until
// OpenDurable replays the log.
func (s *Server) failStop(plan *epochPlan, err error) {
	s.dur.noteErr(err)
	s.stopped.Store(&err)
	s.mu.Lock()
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	if s.met != nil {
		s.met.queueDepth.Add(-float64(len(queued)))
	}
	for _, c := range append(plan.calls, queued...) {
		s.finishErr(c, err)
	}
}

// stopErr returns the error the server failed stop with, or nil.
func (s *Server) stopErr() error {
	if err := s.stopped.Load(); err != nil {
		return *err
	}
	return nil
}
