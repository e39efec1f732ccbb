package shard

// The router's shard-local snapshot read path. A ReadSnapshot Get never
// takes the router's lock and never enters a shard queue: it routes by
// the copy-on-write published table, probes each shard's published
// snapshot on the caller's goroutine (serve.Server.SnapshotGet), and
// returns a future that is already answered. Any wrinkle — a key the
// recent-writes filter distrusts, an unpublished snapshot, or a
// migration completing mid-read (detected by re-loading the table
// pointer after probing) — falls the whole call back to the strong
// path, so answers are never wrong, only occasionally slower.
//
// Migration safety. The hazard is a reader routing by a stale table to
// a shard that just gave a slot away: after the migration deletes the
// moved range from the source, the source's next published snapshot
// answers "not found" for moved keys with a trusted filter stamp. The
// copy-on-write flip closes this: migrateSlotLocked publishes the new
// table BEFORE the source-side delete commits, and snapshot publication
// is ordered after the delete it reflects, so a reader that probes a
// post-delete source snapshot must — by the release/acquire chain
// through the publish pointer — observe the flipped table when it
// re-loads tableP, and falls back. A reader that re-loads the original
// pointer probed snapshots that all predate the delete, which the old
// table routes correctly.

import (
	"github.com/pimlab/pimtrie/internal/serve"
)

// Consistency re-exports the serving layer's read-path selector.
type Consistency = serve.Consistency

// The two read paths; see serve.ReadStrong and serve.ReadSnapshot.
const (
	ReadStrong   = serve.ReadStrong
	ReadSnapshot = serve.ReadSnapshot
)

// GetAsyncWith is GetAsync with an explicit consistency mode.
// ReadSnapshot requires every shard's server to run with
// serve.Options.SnapshotReads (Config.Serve); without it every call
// degrades to the strong path.
func (r *Router) GetAsyncWith(c Consistency, keys ...Key) *GetFuture {
	if c == ReadSnapshot && len(keys) > 0 && !r.closedA.Load() {
		if f := r.snapshotGet(keys); f != nil {
			return f
		}
	}
	return r.GetAsync(keys...)
}

// snapshotGet serves one Get batch entirely from the shards' published
// snapshots, or returns nil to route the call through the strong path
// (all-or-nothing: one consistency decision per call). Wait-free end to
// end — no locks, no goroutines, no channels.
func (r *Router) snapshotGet(keys []Key) *GetFuture {
	tp := r.tableP.Load()
	table := *tp
	subKeys := make([][]Key, len(r.shards))
	subIdx := make([][]int, len(r.shards))
	for i, k := range keys {
		lo, _ := slotRange(k, r.routeBits)
		sid := table[lo]
		subKeys[sid] = append(subKeys[sid], k)
		subIdx[sid] = append(subIdx[sid], i)
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for sid, sk := range subKeys {
		if len(sk) == 0 {
			continue
		}
		sv := make([]uint64, len(sk))
		sf := make([]bool, len(sk))
		if !r.shards[sid].SnapshotGet(sk, sv, sf) {
			// Some key on this shard needs the epoch path; keep the call
			// whole rather than splitting consistency across shards.
			r.snapFallbacks.Add(uint64(len(keys)))
			if r.met != nil {
				r.met.snapFallbacks.Add(uint64(len(keys)))
			}
			return nil
		}
		for j, i := range subIdx[sid] {
			vals[i], found[i] = sv[j], sf[j]
		}
	}
	if r.tableP.Load() != tp {
		// A migration completed while we probed: some answer may have
		// come from a source shard's post-delete snapshot. Retry strong.
		r.snapFallbacks.Add(uint64(len(keys)))
		if r.met != nil {
			r.met.snapFallbacks.Add(uint64(len(keys)))
		}
		return nil
	}
	r.snapKeys.Add(uint64(len(keys)))
	if r.met != nil {
		r.met.note(opGet, len(keys))
		r.met.snapReads.Add(uint64(len(keys)))
	}
	return &GetFuture{vals: vals, found: found}
}
