package shard

import (
	"time"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
)

// The migration policy's constants.
const (
	// imbalanceThreshold is the max/mean per-shard load of a window
	// (metrics.Imbalance, 1 = even) at which Rebalance moves slots.
	imbalanceThreshold = 1.3
	// maxMoves bounds the slots one Rebalance moves.
	maxMoves = 8
	// minWindowKeys is the fewest routed key copies a window needs
	// before Rebalance trusts it: an idle router never migrates.
	minWindowKeys = 256
)

// Rebalance runs one migration-policy cycle: diff the router's
// per-(shard, slot) load counters against the previous call, and when
// the window's per-shard imbalance (max/mean) crosses the threshold
// migrate the hottest slots from the hottest shards to the coolest
// until the window would be balanced or maxMoves is spent. The first
// call only primes the window. Returns the number of slots moved. The
// router never calls it itself; the caller runs it on its own clock,
// typically a ticker.
func (r *Router) Rebalance() (moves int, err error) {
	r.migMu.Lock()
	defer r.migMu.Unlock()

	cur := make([]uint64, len(r.load))
	for i := range r.load {
		cur[i] = r.load[i].Load()
	}
	prev := r.prevLoad
	r.prevLoad = cur
	if prev == nil {
		return 0, nil
	}

	// Window deltas: slot-granular for picking what to move,
	// shard-granular for deciding whether to move at all.
	slotLoad := make([]int64, slots)
	shardLoad := make([]int64, len(r.shards))
	var total int64
	for i := range cur {
		d := int64(cur[i] - prev[i])
		slotLoad[i%slots] += d
		shardLoad[i/slots] += d
		total += d
	}
	maxMean, _ := metrics.Imbalance(shardLoad)
	r.lastImbal = maxMean
	if r.met != nil {
		r.met.imbalance.Set(maxMean)
		for i, l := range shardLoad {
			share := 0.0
			if total > 0 {
				share = float64(l) / float64(total)
			}
			r.met.loadShare[i].Set(share)
		}
	}
	if total < minWindowKeys || maxMean < imbalanceThreshold {
		return 0, nil
	}

	// Plan greedily and execute under the exclusive lock: repeatedly
	// move the hottest slot of the hottest shard to the coolest shard,
	// as long as the move narrows the hot/cool gap.
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, nil
	}
	for moves < maxMoves {
		hot, cool := argMax(shardLoad), argMin(shardLoad)
		if hot == cool || shardLoad[hot] <= shardLoad[cool] {
			break
		}
		best, bestLoad := -1, int64(0)
		for s, sid := range r.table {
			if sid != hot {
				continue
			}
			d := slotLoad[s]
			if d <= bestLoad || shardLoad[cool]+d >= shardLoad[hot] {
				continue // zero-load slot, or the move would just relocate the hotspot
			}
			best, bestLoad = s, d
		}
		if best < 0 {
			break
		}
		if _, err = r.migrateSlotLocked(best, cool); err != nil {
			return moves, err
		}
		shardLoad[hot] -= bestLoad
		shardLoad[cool] += bestLoad
		moves++
	}
	return moves, nil
}

func argMax(v []int64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

func argMin(v []int64) int {
	best := 0
	for i, x := range v {
		if x < v[best] {
			best = i
		}
	}
	return best
}

// MigrateSlot moves one route slot to the given shard under the
// router's exclusive lock and returns the number of pairs replayed. It
// is the manual form of what Rebalance does per move; tests use it to
// force migrations deterministically. Migrating a slot to its current
// owner is a no-op.
func (r *Router) MigrateSlot(slot, to int) (moved int, err error) {
	if slot < 0 || slot >= slots {
		panic("shard: MigrateSlot slot out of range")
	}
	if to < 0 || to >= len(r.shards) {
		panic("shard: MigrateSlot shard out of range")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, serve.ErrClosed
	}
	return r.migrateSlotLocked(slot, to)
}

// migrateSlotLocked executes the migration protocol for one slot while
// holding r.mu exclusively:
//
//  1. export — Subtree-scan the slot's prefix range on the old owner;
//  2. replicas — fetch stored short prefixes of the range the target
//     does not already replicate;
//  3. replay — one Insert batch on the new owner;
//  4. flip — rewrite the routing table entry;
//  5. cleanup — delete the moved range from the old owner, plus its
//     replicas of short prefixes it no longer covers.
//
// No op can submit meanwhile, and every op submitted earlier already
// has its sub-calls queued on its shards ahead of steps 1, 3 and 5, so
// each shard answers it from the state before the move. Ops submitted
// afterwards route by the flipped table to the new owner, which holds
// everything, while the old owner's stale copy is unreachable and
// deleted. No request observes a half-moved range. The steps call the
// shard servers directly, so none of their keys reach r.load.
func (r *Router) migrateSlotLocked(slot, to int) (int, error) {
	from := r.table[slot]
	if from == to {
		return 0, nil
	}
	start := time.Now()
	src, dst := r.shards[from], r.shards[to]
	prefix := slotKey(slot)

	kvs, err := src.Subtree(prefix)
	if err != nil {
		return 0, err
	}
	keys := make([]Key, 0, len(kvs)+routeBits)
	vals := make([]uint64, 0, len(kvs)+routeBits)
	for _, kv := range kvs {
		keys = append(keys, kv.Key)
		vals = append(vals, kv.Value)
	}
	var shorts []Key
	for l := 0; l < routeBits; l++ {
		if p := prefix.Prefix(l); !r.ownsExtensionLocked(to, p) {
			shorts = append(shorts, p)
		}
	}
	if len(shorts) > 0 {
		vs, found, err := src.GetAsync(shorts...).Wait()
		if err != nil {
			return 0, err
		}
		for i, p := range shorts {
			if found[i] {
				keys = append(keys, p)
				vals = append(vals, vs[i])
			}
		}
	}
	if len(keys) > 0 {
		if err := dst.InsertAsync(keys, vals).Wait(); err != nil {
			return 0, err
		}
	}

	// Copy-on-write flip: never mutate a published table. The pointer
	// store is the linearization point for lock-free snapshot readers —
	// it happens BEFORE the source-side delete below, so any reader that
	// could observe the post-delete source snapshot also observes the
	// new pointer on its re-check and falls back (see Router.snapshotGet).
	next := append([]int(nil), r.table...)
	next[slot] = to
	r.table = next
	r.tableP.Store(&next)

	del := make([]Key, 0, len(kvs)+routeBits)
	for _, kv := range kvs {
		del = append(del, kv.Key)
	}
	for l := 0; l < routeBits; l++ {
		if p := prefix.Prefix(l); !r.ownsExtensionLocked(from, p) {
			del = append(del, p)
		}
	}
	if len(del) > 0 {
		if _, err := src.DeleteAsync(del...).Wait(); err != nil {
			return 0, err
		}
	}

	r.migration.Add(1)
	r.movedKeys.Add(uint64(len(kvs)))
	if r.met != nil {
		r.met.migrations.Inc()
		r.met.migratedKeys.Add(uint64(len(kvs)))
		r.met.migrationDur.ObserveDuration(int64(time.Since(start)))
		r.met.updateSlots(r.table, len(r.shards))
	}
	return len(kvs), nil
}

// ownsExtensionLocked reports whether shard sid owns any slot whose
// range extends prefix p under the live table — i.e. whether sid is a
// covering shard that replicates p when p is stored.
func (r *Router) ownsExtensionLocked(sid int, p bitstr.String) bool {
	lo, hi := slotRange(p)
	for s := lo; s < hi; s++ {
		if r.table[s] == sid {
			return true
		}
	}
	return false
}
