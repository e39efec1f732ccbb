// Package shard is the scale-out layer: a Router that partitions the
// key space across N independent PIM-trie shards — each shard a full
// pimtrie.Index (its own simulated PIM system) fronted by its own
// serve.Server (its own epoch scheduler) — and scatters batched
// operations across them. One Index+Server deployment saturates a
// single serve executor; N shards behind a router run N executors side
// by side, which is the unlock for serving traffic far beyond one PIM
// system's capacity.
//
// Partitioning. Keys are routed by their first 8 bits (routeBits): the
// key space splits into 256 contiguous "slots" (lexicographic prefix
// ranges) and a live routing table maps slots to shards. The initial
// table deals the slots to shards in a pseudo-random order seeded by
// Index.Seed, so every shard owns the same number of slots (±1) and
// contiguous key hotspots spread over all shards. Keys shorter than 8
// bits are replicated to every shard owning a slot that extends them,
// so LCP and prefix scans stay single-scatter correct; folds drop the
// replicas.
//
// Scatter. Every op splits its batch with one scatter. The shard set
// of key k is the shards owning a slot of k's range, with the owner of
// its first slot, the primary, first: Insert, Delete and Subtree send k
// to the whole set, Get to the primary only, and LCP to every shard
// (see LCPAsync for why). A router future holds the shard sub-futures
// and folds their answers on its first Wait: Get and Delete take the
// primary's answer, LCP the maximum, Subtree the merge in key order
// with replicas dropped. Answers are bit-identical to a single Index
// holding all keys (the oracle-equality tests assert exactly that).
//
// Ordering. An op queues every sub-call on its shards while it holds
// the router's lock shared, and a migration holds it exclusively. Each
// shard server answers its queue as if in arrival order, so on every
// shard an op submitted before a migration is answered before the
// migration's export, insert and delete touch anything. The router
// runs one executor goroutine per shard and none per request.
//
// Skew. The router counts its own load: scatter adds every key copy it
// sends to a (shard, slot) counter, and a snapshot read adds its keys
// once it commits to their answers. Rebalance diffs those counters
// against its previous call, scores the per-shard sums with
// metrics.Imbalance, and when max/mean crosses a threshold migrates hot
// slots to cool shards: the slot's pairs are exported with a Subtree
// scan on the old owner, replayed with one Insert batch on the new
// owner, and the routing table flips while the migration holds the
// router's lock exclusively, so no request observes a half-moved
// range. A migration talks to the shard servers directly, never
// through scatter, so its own traffic never reaches the load counters.
// The router starts no policy goroutine: the caller decides when
// Rebalance runs, typically on a ticker.
package shard

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
)

// Key and KV alias the index's key types.
type (
	Key = pimtrie.Key
	KV  = pimtrie.KV
)

// Config configures a Router. Zero values select the noted defaults.
type Config struct {
	// Shards is the number of independent Index+Server shards (>= 1).
	Shards int
	// Modules is the number of PIM modules per shard (default 32).
	Modules int
	// Index configures every shard's index; Seed also seeds the initial
	// slot deal, and is offset per shard so placement decisions stay
	// independent.
	Index pimtrie.Options
	// Serve configures every shard's server; MetricLabels gains
	// shard="i".
	Serve serve.Options
	// Metrics, when non-nil, registers router instruments and per-shard
	// serving instruments (labelled shard="i") in the given registry.
	Metrics *metrics.Registry
}

// Router owns N shards and routes batched operations across them; see
// the package comment. Construct with New, stop with Close. All
// methods are safe for concurrent use; futures may be waited from any
// goroutine, any number of times.
type Router struct {
	shards []*serve.Server
	met    *routerMetrics

	// mu orders ops against migrations. An op holds it shared while it
	// reads the table and queues its sub-calls on the shard servers,
	// never while waiting for answers; a migration or Close holds it
	// exclusively.
	mu     sync.RWMutex
	table  []int
	closed bool

	// tableP is the copy-on-write published routing table behind the
	// lock-free snapshot read path: migrations install a fresh copy
	// (never mutating a published one), and a snapshot read re-loads the
	// pointer after probing — a changed pointer means a migration
	// completed mid-read and the whole call falls back to the strong
	// path. closedA mirrors closed for the same lock-free readers.
	tableP  atomic.Pointer[[]int]
	closedA atomic.Bool

	snapKeys      atomic.Uint64 // keys served via shard-local snapshot reads
	snapFallbacks atomic.Uint64 // ReadSnapshot keys sent to the strong path

	// load counts the key copies routed to each (shard, slot), at
	// load[shard*slots+slot]: scatter adds every copy it sends, a
	// snapshot read its keys once it commits.
	load []atomic.Uint64

	// migMu serializes Rebalance calls and guards their sample.
	migMu     sync.Mutex
	prevLoad  []uint64 // load at the previous Rebalance; nil until primed
	lastImbal float64

	migration atomic.Uint64
	movedKeys atomic.Uint64
}

// New builds the shards and starts the router. It panics on an invalid
// configuration (the same contract as pimtrie.New).
func New(cfg Config) *Router {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("shard: New requires at least one shard, got %d", cfg.Shards))
	}
	if cfg.Modules <= 0 {
		cfg.Modules = 32
	}
	table := deal(cfg.Index.Seed, cfg.Shards)
	r := &Router{
		table: table,
		load:  make([]atomic.Uint64, cfg.Shards*slots),
	}
	r.tableP.Store(&table)
	for i := 0; i < cfg.Shards; i++ {
		iopts := cfg.Index
		iopts.Seed = iopts.Seed*int64(cfg.Shards) + int64(i) + 1
		sopts := cfg.Serve
		sopts.Metrics = cfg.Metrics
		if cfg.Metrics != nil {
			sopts.MetricLabels = append(append([]metrics.Label(nil), cfg.Serve.MetricLabels...),
				metrics.L("shard", strconv.Itoa(i)))
		}
		r.shards = append(r.shards, serve.NewServer(pimtrie.New(cfg.Modules, iopts), sopts))
	}
	if cfg.Metrics != nil {
		r.met = newRouterMetrics(cfg.Metrics, cfg.Shards)
		r.met.updateSlots(r.table, cfg.Shards)
	}
	return r
}

// Close drains every shard's server and refuses further requests.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.closedA.Store(true)
	r.mu.Unlock()
	// Every op submitted before closed was set has queued its sub-calls,
	// and closing a server answers its whole queue.
	for _, sh := range r.shards {
		sh.Close()
	}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Table returns a copy of the live slot -> shard routing table.
func (r *Router) Table() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]int(nil), r.table...)
}

// Stats is a snapshot of router-level counters.
type Stats struct {
	Shards, Slots int
	// SlotsByShard counts owned slots per shard under the live table.
	SlotsByShard []int
	// KeysByShard is each shard's stored key count.
	KeysByShard []int
	// Migrations counts completed slot migrations; MovedKeys the pairs
	// they replayed.
	Migrations, MovedKeys uint64
	// LastImbalance is the max/mean per-shard load of the window the
	// most recent Rebalance scored (0 until the second call).
	LastImbalance float64
	// SnapshotReads counts keys served wait-free from shard snapshots;
	// SnapshotFallbacks counts ReadSnapshot keys rerouted to the strong
	// path (recent write, unpublished snapshot, or mid-read migration).
	SnapshotReads, SnapshotFallbacks uint64
}

// Stats returns a router snapshot.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	st := Stats{
		Shards:       len(r.shards),
		Slots:        slots,
		SlotsByShard: make([]int, len(r.shards)),
		KeysByShard:  make([]int, len(r.shards)),
	}
	for _, sid := range r.table {
		st.SlotsByShard[sid]++
	}
	r.mu.RUnlock()
	for i, sh := range r.shards {
		st.KeysByShard[i] = sh.KeyCount()
	}
	r.migMu.Lock()
	st.LastImbalance = r.lastImbal
	r.migMu.Unlock()
	st.Migrations, st.MovedKeys = r.migration.Load(), r.movedKeys.Load()
	st.SnapshotReads, st.SnapshotFallbacks = r.snapKeys.Load(), r.snapFallbacks.Load()
	return st
}

// ShardMetrics returns each shard's cumulative PIM Model cost counters
// as sampled after each shard's most recently committed epoch. Diff
// two snapshots per shard to cost a window; the deployment-level
// makespan of a window is the max over shards of its busy model time —
// shards are independent PIM systems running in parallel. For an exact
// window boundary, quiesce traffic (wait for outstanding futures)
// before snapshotting.
func (r *Router) ShardMetrics() []pimtrie.Metrics {
	out := make([]pimtrie.Metrics, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.ModelMetrics()
	}
	return out
}

// ShardServerStats returns each shard's serving-layer counters.
func (r *Router) ShardServerStats() []serve.Stats {
	out := make([]serve.Stats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.Stats()
	}
	return out
}

// keyRef locates one copy of a request key: position pos of the
// sub-batch sent to shard.
type keyRef struct{ shard, pos int32 }

// plan is one op's scatter: the sub-batch each shard is sent, and
// where every copy of every request key went.
type plan struct {
	keys [][]Key    // keys[s] is shard s's sub-batch (empty: not asked)
	vals [][]uint64 // Insert only: the values parallel to keys
	refs []keyRef   // the copies of key 0, then of key 1, ...
	ends []int32    // key i's copies are refs[ends[i-1]:ends[i]]
}

// scatter splits an op's keys (and values, for Insert) over the shards
// by the live table and counts every copy it sends in r.load at the
// key's first slot; the caller holds r.mu. The shard set of key k is
// the shards owning a slot of slotRange(k), the primary table[lo]
// first, each once. Insert, Delete and Subtree send k to its whole
// set: a write must reach every replica, and a scan every shard the
// prefix's range touches. Get sends k to the primary only, and LCP to
// every shard (see LCPAsync).
func (r *Router) scatter(op int, keys []Key, values []uint64) *plan {
	n := len(r.shards)
	p := &plan{keys: make([][]Key, n), refs: make([]keyRef, 0, len(keys)), ends: make([]int32, len(keys))}
	if values != nil {
		p.vals = make([][]uint64, n)
	}
	send := func(s, i, lo int) {
		r.load[s*slots+lo].Add(1)
		p.refs = append(p.refs, keyRef{shard: int32(s), pos: int32(len(p.keys[s]))})
		p.keys[s] = append(p.keys[s], keys[i])
		if values != nil {
			p.vals[s] = append(p.vals[s], values[i])
		}
	}
	var sentTo []int // sentTo[s] == i+1 once key i went to shard s
	for i, k := range keys {
		lo, hi := slotRange(k)
		switch {
		case op == opLCP:
			for s := range n {
				send(s, i, lo)
			}
		case op == opGet || hi == lo+1:
			send(r.table[lo], i, lo)
		default:
			if sentTo == nil {
				sentTo = make([]int, n)
			}
			for slot := lo; slot < hi; slot++ {
				if s := r.table[slot]; sentTo[s] != i+1 {
					sentTo[s] = i + 1
					send(s, i, lo)
				}
			}
		}
		p.ends[i] = int32(len(p.refs))
	}
	return p
}

// combine folds each request key's answers from its copies, primary
// first: per[s] holds shard s's answers.
func combine[T, R any](p *plan, per [][]T, fold func(copies []T) R) []R {
	out := make([]R, len(p.ends))
	copies := make([]T, 0, len(per))
	lo := int32(0)
	for i, hi := range p.ends {
		copies = copies[:0]
		for _, ref := range p.refs[lo:hi] {
			copies = append(copies, per[ref.shard][ref.pos])
		}
		out[i], lo = fold(copies), hi
	}
	return out
}

// primary is the Get and Delete fold: the primary copy answers.
func primary[T any](copies []T) T { return copies[0] }

// pending is what a router future holds until its first Wait: the
// op's scatter plan and its shard sub-futures, indexed by shard.
type pending[F any] struct {
	once sync.Once
	p    *plan // nil: answered, or failed, at submission
	subs []F
	err  error
}

// submit scatters keys and queues each shard's sub-batch with call,
// all under the read lock. A migration holds that lock exclusively, so
// it finds every sub-call of this op already queued on its shards
// ahead of its own, and each shard answers them from the state before
// the move.
func (f *pending[F]) submit(r *Router, op int, keys []Key, values []uint64, call func(srv *serve.Server, keys []Key, values []uint64) F) {
	if len(keys) == 0 {
		f.p = &plan{}
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		f.err = serve.ErrClosed
		return
	}
	f.p = r.scatter(op, keys, values)
	if r.met != nil {
		r.met.note(op, len(keys))
		switch op {
		case opInsert:
			r.met.replicated.Add(uint64(len(f.p.refs) - len(keys)))
		case opSubtree:
			r.met.fanout.Add(uint64(len(f.p.refs)))
		}
	}
	f.subs = make([]F, len(r.shards))
	for s, ks := range f.p.keys {
		if len(ks) > 0 {
			var vs []uint64
			if values != nil {
				vs = f.p.vals[s]
			}
			f.subs[s] = call(r.shards[s], ks, vs)
		}
	}
}

// waitAll waits on every sub-future with wait, keeping the first
// error, and reports whether there are answers to fold.
func (f *pending[F]) waitAll(wait func(s int, sub F) error) bool {
	if f.p == nil {
		return false
	}
	for s, ks := range f.p.keys {
		if len(ks) > 0 {
			if err := wait(s, f.subs[s]); err != nil && f.err == nil {
				f.err = err
			}
		}
	}
	return f.err == nil
}

// GetFuture is the handle of an in-flight Get batch.
type GetFuture struct {
	pending[*serve.GetFuture]
	vals  []uint64
	found []bool
}

// Wait blocks until every shard answered: values[i], found[i] answer
// the i-th requested key.
func (f *GetFuture) Wait() ([]uint64, []bool, error) {
	f.once.Do(func() {
		vals, found := make([][]uint64, len(f.subs)), make([][]bool, len(f.subs))
		if f.waitAll(func(s int, sub *serve.GetFuture) (err error) {
			vals[s], found[s], err = sub.Wait()
			return err
		}) {
			f.vals, f.found = combine(f.p, vals, primary), combine(f.p, found, primary)
		}
	})
	return f.vals, f.found, f.err
}

// GetAsync sends each key of an exact-lookup batch to its primary
// shard.
func (r *Router) GetAsync(keys ...Key) *GetFuture {
	f := &GetFuture{}
	f.submit(r, opGet, keys, nil, func(srv *serve.Server, ks []Key, _ []uint64) *serve.GetFuture {
		return srv.GetAsync(ks...)
	})
	return f
}

// LCPFuture is the handle of an in-flight LCP batch.
type LCPFuture struct {
	pending[*serve.LCPFuture]
	lcps []int
}

// Wait blocks until every shard answered: lcps[i] answers the i-th
// requested key.
func (f *LCPFuture) Wait() ([]int, error) {
	f.once.Do(func() {
		per := make([][]int, len(f.subs))
		if f.waitAll(func(s int, sub *serve.LCPFuture) (err error) {
			per[s], err = sub.Wait()
			return err
		}) {
			f.lcps = combine(f.p, per, slices.Max[[]int])
		}
	})
	return f.lcps, f.err
}

// LCPAsync broadcasts a longest-common-prefix batch to every shard and
// takes the per-query maximum. Broadcast is required for correctness,
// not convenience: an answer longer than 8 bits comes from the
// query's own slot, but an answer of length L < 8 can be
// witnessed by a stored key diverging from the query at bit L — a key
// in a sibling slot that may live on any shard. Each shard's answer
// only ranges over genuinely stored keys (replicas are copies), so
// every answer is a lower bound of the true one and their maximum,
// over shards jointly holding every key, is exact.
func (r *Router) LCPAsync(keys ...Key) *LCPFuture {
	f := &LCPFuture{}
	f.submit(r, opLCP, keys, nil, func(srv *serve.Server, ks []Key, _ []uint64) *serve.LCPFuture {
		return srv.LCPAsync(ks...)
	})
	return f
}

// InsertFuture is the handle of an in-flight Insert batch.
type InsertFuture struct {
	pending[*serve.InsertFuture]
}

// Wait blocks until every shard committed the mutation.
func (f *InsertFuture) Wait() error {
	f.once.Do(func() {
		f.waitAll(func(_ int, sub *serve.InsertFuture) error { return sub.Wait() })
	})
	return f.err
}

// InsertAsync scatters a mutation storing the given pairs; it panics
// if the slices disagree in length. Keys shorter than 8 bits are
// replicated to every shard covering their extensions so prefix
// queries stay single-scatter.
func (r *Router) InsertAsync(keys []Key, values []uint64) *InsertFuture {
	if len(keys) != len(values) {
		panic("shard: InsertAsync keys/values length mismatch")
	}
	f := &InsertFuture{}
	f.submit(r, opInsert, keys, values, func(srv *serve.Server, ks []Key, vs []uint64) *serve.InsertFuture {
		return srv.InsertAsync(ks, vs)
	})
	return f
}

// DeleteFuture is the handle of an in-flight Delete batch.
type DeleteFuture struct {
	pending[*serve.DeleteFuture]
	found []bool
}

// Wait blocks until every shard committed: found[i] reports whether
// the i-th requested key was present.
func (f *DeleteFuture) Wait() ([]bool, error) {
	f.once.Do(func() {
		per := make([][]bool, len(f.subs))
		if f.waitAll(func(s int, sub *serve.DeleteFuture) (err error) {
			per[s], err = sub.Wait()
			return err
		}) {
			f.found = combine(f.p, per, primary)
		}
	})
	return f.found, f.err
}

// DeleteAsync scatters a mutation removing the given keys, including
// every replica of short keys; found comes from the primary copy.
func (r *Router) DeleteAsync(keys ...Key) *DeleteFuture {
	f := &DeleteFuture{}
	f.submit(r, opDelete, keys, nil, func(srv *serve.Server, ks []Key, _ []uint64) *serve.DeleteFuture {
		return srv.DeleteAsync(ks...)
	})
	return f
}

// SubtreeFuture is the handle of an in-flight prefix-scan batch.
type SubtreeFuture struct {
	pending[*serve.SubtreeFuture]
	results [][]KV
}

// Wait blocks until every shard answered: results[i] holds the stored
// pairs extending the i-th requested prefix, merged across shards in
// lexicographic key order with replicas deduplicated.
func (f *SubtreeFuture) Wait() ([][]KV, error) {
	f.once.Do(func() {
		per := make([][][]KV, len(f.subs))
		if f.waitAll(func(s int, sub *serve.SubtreeFuture) (err error) {
			per[s], err = sub.Wait()
			return err
		}) {
			f.results = combine(f.p, per, mergeKVs)
		}
	})
	return f.results, f.err
}

// SubtreeAsync fans each prefix out to every shard whose slot range
// can intersect it and merges the sorted per-shard answers.
func (r *Router) SubtreeAsync(prefixes ...Key) *SubtreeFuture {
	f := &SubtreeFuture{}
	f.submit(r, opSubtree, prefixes, nil, func(srv *serve.Server, ks []Key, _ []uint64) *serve.SubtreeFuture {
		return srv.SubtreeAsync(ks...)
	})
	return f
}

// mergeKVs k-way merges sorted per-shard scan results into one sorted
// slice, dropping duplicate keys (replicated short keys appear on
// every covering shard with identical values — the router keeps them
// consistent).
func mergeKVs(parts [][]KV) []KV {
	live := parts[:0]
	total := 0
	for _, p := range parts {
		if len(p) > 0 {
			live = append(live, p)
			total += len(p)
		}
	}
	switch len(live) {
	case 0:
		return []KV{}
	case 1:
		return live[0]
	}
	out := make([]KV, 0, total)
	pos := make([]int, len(live))
	for {
		best := -1
		for i, p := range live {
			if pos[i] >= len(p) {
				continue
			}
			if best < 0 || bitstr.Compare(p[pos[i]].Key, live[best][pos[best]].Key) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		kv := live[best][pos[best]]
		out = append(out, kv)
		// Advance every list past this key, swallowing replicas.
		for i, p := range live {
			for pos[i] < len(p) && bitstr.Equal(p[pos[i]].Key, kv.Key) {
				pos[i]++
			}
		}
	}
}

// Get is the blocking form of GetAsync.
func (r *Router) Get(keys []Key) ([]uint64, []bool, error) {
	return r.GetAsync(keys...).Wait()
}

// LCP is the blocking form of LCPAsync.
func (r *Router) LCP(keys []Key) ([]int, error) {
	return r.LCPAsync(keys...).Wait()
}

// Insert is the blocking form of InsertAsync.
func (r *Router) Insert(keys []Key, values []uint64) error {
	return r.InsertAsync(keys, values).Wait()
}

// Delete is the blocking form of DeleteAsync.
func (r *Router) Delete(keys []Key) ([]bool, error) {
	return r.DeleteAsync(keys...).Wait()
}

// Subtrees is the blocking form of SubtreeAsync.
func (r *Router) Subtrees(prefixes []Key) ([][]KV, error) {
	return r.SubtreeAsync(prefixes...).Wait()
}

// Len returns the number of stored keys across all shards as of each
// shard's last committed epoch. Replicated short keys are counted once
// per covering shard, so this may exceed the logical key count by the
// replica count — use Subtrees of the empty prefix for exact logical
// contents.
func (r *Router) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.KeyCount()
	}
	return n
}
