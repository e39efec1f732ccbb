package serve

// The wait-free snapshot read path. The epoch scheduler exists to
// amortize host<->PIM communication, but it taxes every Get with epoch
// queueing, linger, and future resolution even when the caller would
// happily read slightly stale data. This file adds a second consistency
// mode: the executor publishes the latest post-epoch COW snapshot
// (trie.Flat + a write-epoch stamp) through an atomic pointer, and
// ReadSnapshot Gets probe it lock-free on the caller's goroutine — no
// queue, no epoch, no goroutine handoff, no allocation beyond the
// result slices.
//
// Staleness is bounded per key by a recent-writes filter: a power-of-two
// table of write-epoch stamps, two slots per key (derived from one
// 64-bit hash), written only by the executor as each write epoch
// commits. A reader trusts the published snapshot for a key iff
// min(slot1, slot2) <= published stamp — the key cannot have been
// written by any epoch later than the snapshot. Slot stamps only grow
// and are recorded BEFORE the write's futures resolve, so the filter
// has no false negatives: a snapshot answer for a trusted key is
// per-key identical to ReadStrong at that instant. False positives
// (unrelated keys sharing a slot) only cause spurious fallbacks to the
// epoch path, never wrong answers.
//
// Publication is pair-atomic (one pointer swap installs flat and stamp
// together) and the stamp is monotone: the publisher loads the
// committed-write counter BEFORE flattening, so the stamp is a safe
// lower bound on what the snapshot contains, and a single publisher
// goroutine only moves it forward.

import (
	"sync/atomic"

	"github.com/pimlab/pimtrie"
)

// Consistency selects the read path of a Get.
type Consistency int

const (
	// ReadStrong serves through the epoch scheduler: every answer is
	// consistent with the serial order of committed epochs.
	ReadStrong Consistency = iota
	// ReadSnapshot serves from the published COW snapshot when the
	// recent-writes filter proves every requested key unchanged since
	// publication, falling back to the epoch path otherwise. Bounded
	// staleness, per-key read-your-writes: an acknowledged write is
	// never missed (the filter forces the fallback until a snapshot
	// containing it is published).
	ReadSnapshot
)

// snapState is one published (snapshot, stamp) pair; swapped in as a
// unit so readers can never observe a torn combination.
type snapState struct {
	flat  *pimtrie.Snapshot
	epoch uint64 // write epochs committed before the flatten started
}

// snapshotFilterBits sizes the recent-writes filter: 2^14 epoch-stamp
// slots (128 KiB). Slot sharing only costs spurious fallbacks to the
// epoch path, never wrong answers.
const (
	snapshotFilterBits = 14
	filterMask         = 1<<snapshotFilterBits - 1
)

// writeFilter is the recent-writes filter: 2^snapshotFilterBits
// epoch-stamp slots, two per key. Written only by the executor (monotone
// stores, no CAS needed); read lock-free by snapshot readers. Never
// cleared — stale stamps age out naturally as the published epoch
// overtakes them.
type writeFilter struct {
	slots [1 << snapshotFilterBits]atomic.Uint64
}

// note records that the key hashing to h was written by write epoch
// stamp. Executor only; stamps are non-decreasing across epochs, so a
// plain store never regresses a slot.
func (w *writeFilter) note(h, stamp uint64) {
	w.slots[h&filterMask].Store(stamp)
	w.slots[(h>>32)&filterMask].Store(stamp)
}

// writtenSince reports whether the key hashing to h may have been
// written by an epoch later than stamp. No false negatives: note(h, w)
// leaves both slots >= w, so min > stamp whenever w > stamp.
func (w *writeFilter) writtenSince(h, stamp uint64) bool {
	a := w.slots[h&filterMask].Load()
	b := w.slots[(h>>32)&filterMask].Load()
	if b < a {
		a = b
	}
	return a > stamp
}

// keyHash mixes a key's length and raw words into one 64-bit hash whose
// low and high halves index the filter independently (splitmix64-style
// finalizer for avalanche).
func keyHash(k Key) uint64 {
	h := uint64(k.Len())*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, w := range k.RawWords() {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// publisher is the snapshot-publication goroutine: it wakes on the
// executor's dirty signal after each committed write epoch and installs
// a fresh (flat, stamp) pair. Index.Snapshot is memoized per shadow
// version and safe concurrently with executing batches (core COW
// snapshots), so republication costs one flatten per version at most
// and never blocks the executor.
func (s *Server) publisher() {
	defer s.wg.Done()
	for range s.snapDirty {
		s.publishSnapshot()
	}
	// Dirty channel closed: execution is over. Publish once more so the
	// server's final state is what stays visible to late readers.
	s.publishSnapshot()
}

// publishSnapshot installs the current snapshot under a stamp loaded
// BEFORE flattening — the flat may contain later epochs, making the
// stamp a safe lower bound (the filter then conservatively falls back
// for keys written in the gap). Single caller (the publisher), so the
// published stamp is monotone.
func (s *Server) publishSnapshot() {
	e := s.committedW.Load()
	if old := s.pub.Load(); old != nil && old.epoch == e {
		return
	}
	ss := &snapState{flat: s.ix.Snapshot(), epoch: e}
	s.pub.Store(ss)
	if s.met != nil {
		s.met.snapEpoch.Set(float64(e))
	}
}

// SnapshotView returns the currently published (snapshot, write-epoch
// stamp) pair, or (nil, 0) when snapshot reads are disabled. The pair
// is immutable; safe from any goroutine.
func (s *Server) SnapshotView() (*pimtrie.Snapshot, uint64) {
	ss := s.pub.Load()
	if ss == nil {
		return nil, 0
	}
	return ss.flat, ss.epoch
}

// SnapshotGet answers every key from the published snapshot into the
// caller's slices, or serves none of them and returns false: one
// consistency decision per call. GetAsyncWith's ReadSnapshot path and
// the shard router's probe both use it. vals and found must have
// len(keys). Wait-free: no locks, no channels, no goroutines.
func (s *Server) SnapshotGet(keys []Key, vals []uint64, found []bool) bool {
	ss := s.pub.Load()
	if ss == nil {
		return false
	}
	for _, k := range keys {
		if s.snapFilter.writtenSince(keyHash(k), ss.epoch) {
			s.noteSnapshotFallback(len(keys), ss)
			return false
		}
	}
	ss.flat.GetBatch(keys, vals, found)
	s.noteSnapshotServed(keys, ss)
	return true
}

func (s *Server) noteSnapshotServed(keys []Key, ss *snapState) {
	s.snapKeys.Add(uint64(len(keys)))
	if s.met != nil {
		s.met.snapReads.Add(uint64(len(keys)))
		s.met.snapAge.Set(float64(s.committedW.Load() - ss.epoch))
	}
	if s.prefixLoad != nil {
		// Snapshot hits still count toward the per-prefix load signal:
		// the sharding migration policy must keep seeing read-heavy hot
		// ranges even when they never touch the epoch path.
		for _, k := range keys {
			atomic.AddUint64(&s.prefixLoad[k.PrefixIndex(s.opts.PrefixLoadBits)], 1)
		}
	}
}

func (s *Server) noteSnapshotFallback(keys int, ss *snapState) {
	s.snapFallbacks.Add(uint64(keys))
	if s.met != nil {
		s.met.snapFallbacks.Add(uint64(keys))
		s.met.snapAge.Set(float64(s.committedW.Load() - ss.epoch))
	}
}

// GetAsyncWith is GetAsync with an explicit consistency mode.
// ReadSnapshot resolves immediately (wait-free) when the published
// snapshot can answer every key; otherwise — filter conflict, no
// snapshot published, or snapshot reads disabled — it transparently
// degrades to the ReadStrong epoch path.
func (s *Server) GetAsyncWith(c Consistency, keys ...Key) *GetFuture {
	if c == ReadSnapshot && s.snapFilter != nil && len(keys) > 0 {
		vals := make([]uint64, len(keys))
		found := make([]bool, len(keys))
		if s.SnapshotGet(keys, vals, found) {
			f := resolvedFuture()
			f.vals, f.found = vals, found
			return &GetFuture{f: f}
		}
	}
	return s.GetAsync(keys...)
}
