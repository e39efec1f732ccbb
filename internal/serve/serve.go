// Package serve is the concurrent serving layer in front of a
// pimtrie.Index. The index is strictly single-caller — batches are the
// unit of parallelism, exactly as in the paper's model — so a system
// serving many concurrent clients needs a front-end that turns small
// asynchronous requests into the large, well-shaped batches the
// algorithm (and the PIM Model's IO-time bounds) rewards. Server
// provides that front-end:
//
//   - Admission/coalescing: single- and multi-key async requests (Get,
//     LCP, Subtree, Insert, Delete) join one arrival-order queue. One
//     executor goroutine forms an epoch of at most MaxBatch keys from
//     everything queued, runs it as one index batch and settles its
//     futures, then forms the next; there is no timer and no
//     controller.
//   - One epoch kind: an epoch is the longest queue prefix that one
//     batch — its reads, then its inserts, then its deletes — answers as
//     the calls in arrival order would be answered; identical in-flight
//     read keys are deduplicated (singleflight). Every response is
//     consistent with the serial order of committed epochs.
//   - Two answer paths for a Get: the strong epoch path above, and
//     (opt-in, Options.SnapshotReads) wait-free ReadSnapshot probes of
//     the latest published snapshot; see snapshot.go.
//
// Model metrics for any individual executed batch are bit-identical to
// direct Index calls on the same batch; the serving layer changes which
// batches run, never the per-batch model cost.
package serve

import (
	"errors"
	"sync/atomic"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
)

// Key and KV alias the index's key types.
type (
	Key = pimtrie.Key
	KV  = pimtrie.KV
)

// ErrClosed is reported by requests submitted after Close.
var ErrClosed = errors.New("serve: server closed")

// Op identifies a request type.
type Op int

// The five request types, in queue order.
const (
	OpGet Op = iota
	OpLCP
	OpSubtree
	OpInsert
	OpDelete
	numOps
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpLCP:
		return "lcp"
	case OpSubtree:
		return "subtree"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "op?"
}

// isRead reports whether the op leaves the index unchanged.
func (o Op) isRead() bool { return o == OpGet || o == OpLCP || o == OpSubtree }

// Options configures a Server. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// MaxBatch bounds the keys of an epoch over all its sections, read
	// keys counted once per section however many calls ask (default
	// 1024). Calls are admitted whole, so an epoch of one call may
	// exceed it.
	MaxBatch int
	// RecordHistory retains the committed epoch order together with every
	// request's inputs and responses so tests can replay it against a
	// serial oracle. Memory grows without bound; testing only.
	RecordHistory bool
	// Metrics, when non-nil, registers the live serving instruments in
	// the given registry and keeps them updated: per-op arrival counters
	// and end-to-end latency histograms, the queue-depth gauge, linger,
	// execute and epoch-size histograms, epoch and cut counters, dedupe
	// counters,
	// and the post-epoch index health feed behind Server.Health. Nil
	// (the default) disables instrumentation entirely — the hot path
	// then pays one nil check per site.
	Metrics *metrics.Registry
	// MetricLabels are appended to every instrument this server
	// registers, so several servers (the per-shard servers of a
	// shard.Router) can share one registry without their series
	// colliding — each shard contributes its own shard="i" series and
	// the exposition stays lint-clean. Ignored without Metrics.
	MetricLabels []metrics.Label
	// Durable enables the write-ahead durability layer: every
	// committed write epoch is appended to Durable.Log before its
	// futures resolve (acknowledged means durable), with periodic
	// checkpoints bounding the restart replay tail. Requires a
	// recoverable index. See durable.go and the wal package.
	Durable *Durable
	// SnapshotReads enables the wait-free read fast path: the executor
	// publishes the latest post-epoch COW snapshot through an atomic
	// pointer and ReadSnapshot Gets (GetAsyncWith, and the shard
	// router through SnapshotGet) probe it on the caller's goroutine,
	// bypassing the epoch scheduler entirely when the recent-writes
	// filter proves every key of the call unchanged since publication.
	// Requires a recoverable index (pimtrie Options.Recoverable:
	// snapshots flatten the host shadow); NewServer panics otherwise.
	// See snapshot.go for the staleness bound.
	SnapshotReads bool
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	return o
}

// Stats are cumulative serving counters, indexed by Op where per-op.
type Stats struct {
	// Requests counts admitted requests (calls, not keys) per op.
	Requests [numOps]uint64
	// KeysRequested counts keys across admitted requests per op.
	KeysRequested [numOps]uint64
	// KeysExecuted counts unique keys actually sent to the index per op —
	// the difference to KeysRequested is singleflight dedupe.
	KeysExecuted [numOps]uint64
	// ReadEpochs and WriteEpochs count the epochs holding a read section
	// and those holding a write section; an epoch holding both counts in
	// both.
	ReadEpochs, WriteEpochs uint64
	// DedupedKeys counts read keys absorbed by singleflight dedupe: read
	// keys admitted into epochs minus the unique keys executed for them.
	DedupedKeys uint64
	// MaxEpochKeys is the largest key count of any executed epoch, over
	// all its sections.
	MaxEpochKeys int
	// SnapshotKeys counts keys GetAsyncWith served wait-free from the
	// published COW snapshot (Options.SnapshotReads); SnapshotFallbacks
	// counts ReadSnapshot keys the recent-writes filter sent back to the
	// epoch path. SnapshotGet probes count in neither. Neither appears
	// in Requests/KeysRequested — snapshot hits never enter the
	// scheduler.
	SnapshotKeys, SnapshotFallbacks uint64
}

// future carries one request's results. Resolution is exactly-once by
// construction: settle/fail race through one CAS on state, so result
// delivery, the executor's panic-recover sweep, and the WAL error path
// can all attempt resolution without coordinating. Result
// fields are written only by the winning resolver before done closes;
// waiters read them only after done.
type future struct {
	done  chan struct{}
	state atomic.Uint32 // futPending -> futSettled, CAS guarded
	err   error
	ints  []int
	vals  []uint64
	found []bool
	kvs   [][]KV
}

const (
	futPending = iota
	futSettled
)

func newFuture() *future { return &future{done: make(chan struct{})} }

// closedDone is shared by every pre-resolved future: the snapshot fast
// path resolves on the caller's goroutine, so Wait must not block and
// no per-request channel is ever needed.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// settle resolves the future successfully; it reports whether this call
// won (false: already resolved, a no-op).
func (f *future) settle() bool {
	if !f.state.CompareAndSwap(futPending, futSettled) {
		return false
	}
	close(f.done)
	return true
}

// fail resolves the future with err; it reports whether this call won.
func (f *future) fail(err error) bool {
	if !f.state.CompareAndSwap(futPending, futSettled) {
		return false
	}
	f.err = err
	close(f.done)
	return true
}

// GetFuture is the handle of an in-flight Get request.
type GetFuture struct{ f *future }

// Wait blocks until the request is served: values[i], found[i] answer
// the i-th requested key.
func (g *GetFuture) Wait() (values []uint64, found []bool, err error) {
	<-g.f.done
	return g.f.vals, g.f.found, g.f.err
}

// LCPFuture is the handle of an in-flight LCP request.
type LCPFuture struct{ f *future }

// Wait blocks until the request is served: lcps[i] answers the i-th
// requested key.
func (l *LCPFuture) Wait() (lcps []int, err error) {
	<-l.f.done
	return l.f.ints, l.f.err
}

// SubtreeFuture is the handle of an in-flight Subtree request.
type SubtreeFuture struct{ f *future }

// Wait blocks until the request is served: results[i] holds the stored
// pairs extending the i-th requested prefix, in lexicographic order.
// Result slices may be shared with concurrent duplicate requests; treat
// them as read-only.
func (s *SubtreeFuture) Wait() (results [][]KV, err error) {
	<-s.f.done
	return s.f.kvs, s.f.err
}

// InsertFuture is the handle of an in-flight Insert request.
type InsertFuture struct{ f *future }

// Wait blocks until the mutation's epoch has committed.
func (i *InsertFuture) Wait() error {
	<-i.f.done
	return i.f.err
}

// DeleteFuture is the handle of an in-flight Delete request.
type DeleteFuture struct{ f *future }

// Wait blocks until the mutation's epoch has committed: found[i]
// reports whether the i-th requested key was present (duplicates report
// true once, matching sequential deletion in epoch order).
func (d *DeleteFuture) Wait() (found []bool, err error) {
	<-d.f.done
	return d.f.found, d.f.err
}

// GetAsync enqueues an exact-lookup request for the given keys.
func (s *Server) GetAsync(keys ...Key) *GetFuture {
	return &GetFuture{f: s.submit(OpGet, keys, nil)}
}

// LCPAsync enqueues a longest-common-prefix request for the given keys.
func (s *Server) LCPAsync(keys ...Key) *LCPFuture {
	return &LCPFuture{f: s.submit(OpLCP, keys, nil)}
}

// SubtreeAsync enqueues a prefix-scan request for the given prefixes.
func (s *Server) SubtreeAsync(prefixes ...Key) *SubtreeFuture {
	return &SubtreeFuture{f: s.submit(OpSubtree, prefixes, nil)}
}

// InsertAsync enqueues a mutation storing the given pairs; it panics if
// the slices disagree in length. Duplicates resolve in epoch order,
// later writes winning.
func (s *Server) InsertAsync(keys []Key, values []uint64) *InsertFuture {
	if len(keys) != len(values) {
		panic("serve: InsertAsync keys/values length mismatch")
	}
	return &InsertFuture{f: s.submit(OpInsert, keys, values)}
}

// DeleteAsync enqueues a mutation removing the given keys.
func (s *Server) DeleteAsync(keys ...Key) *DeleteFuture {
	return &DeleteFuture{f: s.submit(OpDelete, keys, nil)}
}

// Subtree is the blocking single-prefix convenience form of
// SubtreeAsync.
func (s *Server) Subtree(prefix Key) ([]KV, error) {
	res, err := s.SubtreeAsync(prefix).Wait()
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
