package core

// Copy-on-write snapshots. A Snapshot is a flattened, immutable view
// of the host shadow trie — the key authority recoverable mode keeps
// in sync ahead of every distributed mutation — so long-running reads
// (Subtree exports, backups, checkpoint serialization) can run against
// a frozen version while write batches keep committing.
//
// The concurrency contract is deliberately narrow. A batch updates the
// shadow once, under shadowMu.Lock() for *all* its writes — inserts and
// deletes alike (shadowWrites is the only shadow-mutation site) — and
// Snapshot flattens under shadowMu.RLock(), so a snapshot always lands
// on a batch boundary: it observes every write of a committed batch or
// none of them. Under the serve layer a batch is an epoch, making
// snapshots epoch-atomic.
//
// Snapshot is exempt from the beginBatch single-caller guard: it
// touches no pooled scratch and no module state, only the
// lock-protected shadow. It is therefore safe to call from any
// goroutine while batches execute — this is what "copy-on-write"
// buys: the Flat is built once per shadow version (memoized in
// snapCache) and shared read-only afterwards; writers never copy, they
// just advance shadowVer and let the next Snapshot re-flatten.

import "github.com/pimlab/pimtrie/internal/trie"

// shadowSnap memoizes one flattened shadow version.
type shadowSnap struct {
	ver  uint64
	flat *trie.Flat
}

// Snapshot returns an immutable point-in-time view of the stored
// key/value pairs, frozen at a batch (serve: epoch) boundary.
// Repeated calls between mutations return the same *trie.Flat.
// Returns nil when the index is not recoverable (no shadow exists).
func (t *PIMTrie) Snapshot() *trie.Flat {
	if !t.recoverable {
		return nil
	}
	t.shadowMu.RLock()
	defer t.shadowMu.RUnlock()
	ver := t.shadowVer
	if c := t.snapCache.Load(); c != nil && c.ver == ver {
		return c.flat
	}
	flat := trie.Flatten(t.shadow)
	// Still under RLock: ver cannot advance, so the entry is coherent.
	// Two concurrent first-flatteners may both build; either result is
	// valid for this version and the last store wins.
	t.snapCache.Store(&shadowSnap{ver: ver, flat: flat})
	return flat
}
