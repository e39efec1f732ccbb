package core

// Module-loss recovery. The host retains a key authority in recoverable
// mode — a shadow trie holding every stored key plus a directory mapping
// each live block to the absolute bit string of its root — so when the
// fault layer crash-stops a module, the index can rebuild exactly the
// lost shard and resume the in-flight batch.
//
// Two tiers of repair, chosen by the dirty counter:
//
//   - Targeted (dirty == 0): the fault landed in a read-only window, so
//     every surviving block and the directory are coherent. Each lost
//     block is re-derived host-side from the shadow (its root string and
//     child-root strings come from the directory), re-placed on a random
//     module, re-wired to its surviving parent and children, and the
//     HVM (regions + master) is reassembled over the full directory.
//     Only the lost shard is re-pushed.
//
//   - Full rebuild (dirty > 0): the fault interrupted a distributed
//     mutation (apply, split, removal, rehash, load), so survivors may
//     hold half-applied state. The whole index is rebuilt from the
//     shadow via the bulk-load path. Because mutations update the shadow
//     before touching modules, the rebuilt state is the post-batch
//     state, and the interrupted mutation must not be replayed.
//
// Every repair round runs with fault injection suspended, inside a
// "recover" phase, so the cost is first-class in the model metrics and
// attributable by the obs tracer.

import (
	"sort"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// Health reports the index's fault/recovery status.
type Health struct {
	Recoverable bool  // host key authority maintained
	Degraded    bool  // a recovery is in progress
	DeadModules []int // currently crash-stopped modules

	Recoveries   int // completed Recover runs
	FullRebuilds int // recoveries that had to rebuild from the shadow
	ModulesLost  int // modules lost across all recoveries

	// Injected-fault counts from the system's fault plan.
	Crashes     int64
	Straggles   int64
	Truncations int64

	// RecoveryCost accumulates the model cost of every repair (rounds,
	// IO time/words, PIM and CPU work attributed to "recover" phases).
	RecoveryCost pim.Metrics
}

// Health returns the current fault/recovery status.
func (t *PIMTrie) Health() Health {
	h := Health{
		Recoverable:  t.recoverable,
		Degraded:     t.degraded,
		DeadModules:  t.sys.DeadModules(),
		Recoveries:   t.recoveries,
		FullRebuilds: t.fullRebuilds,
		ModulesLost:  t.modulesLost,
		RecoveryCost: t.recoveryCost,
	}
	h.Crashes, h.Straggles, h.Truncations = t.sys.FaultCounts()
	return h
}

// shadowWrites mirrors a batch's writes into the host key authority —
// its inserts, then its deletes, answering the deletes — before any of
// them reaches a module (see apply). The whole batch mutates under one
// write lock, so a concurrent Snapshot lands on a batch boundary (see
// snapshot.go).
func (t *PIMTrie) shadowWrites(e *epoch) {
	ins, del := e.keys[secInsert], e.keys[secDelete]
	if !t.recoverable || e.shadowed || len(ins)+len(del) == 0 {
		return
	}
	defer t.sys.Phase("shadow")()
	t.shadowMu.Lock()
	w := 0
	for i, k := range ins {
		t.shadow.Insert(k, e.values[i])
		w += k.Words() + 1
	}
	for i, k := range del {
		e.res.Deleted[i] = t.shadow.Delete(k)
		w += k.Words() + 1
	}
	t.shadowVer++
	t.shadowMu.Unlock()
	e.shadowed = true
	t.sys.CPUWork(w)
}

// syncKeyCount makes the shadow authoritative for the key count after a
// mutation: a recovery in the middle of a batch can leave the
// incremental per-reply tally short or long, the shadow never is.
func (t *PIMTrie) syncKeyCount() {
	if t.recoverable {
		t.nKeys = t.shadow.KeyCount()
	}
}

// withRecovery runs a mutating batch (Apply or the bulk load), catching
// module-loss faults and repairing. After each repair, settled — told
// whether it was a full rebuild, which has already produced every write
// the shadow holds — reports whether the batch is finished; if not, op
// runs again.
func (t *PIMTrie) withRecovery(op func(), settled func(full bool) bool) {
	if !t.recoverable {
		op()
		return
	}
	for {
		lost := t.catchLost(op)
		if lost == nil || settled(t.recoverFrom(lost)) {
			return
		}
	}
}

// catchLost runs op and converts a *pim.ModuleLostError panic into a
// return value, rebalancing the phase stack the panic unwound past.
// Any other panic (including *pim.InvariantError — a bug, never a
// fault) propagates.
func (t *PIMTrie) catchLost(op func()) (lost *pim.ModuleLostError) {
	depth := t.sys.PhaseDepth()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e, ok := r.(*pim.ModuleLostError)
		if !ok {
			panic(r)
		}
		t.sys.UnwindPhases(depth)
		lost = e
	}()
	op()
	return nil
}

// recoverFrom repairs after a module loss and reports whether the
// repair was a full rebuild (see apply for what that means for the
// interrupted batch).
func (t *PIMTrie) recoverFrom(lost *pim.ModuleLostError) (full bool) {
	t.degraded = true
	start := t.sys.Metrics()
	t.sys.SuspendFaults()
	defer t.sys.ResumeFaults()
	end := t.sys.Phase("recover")
	defer end()

	dead := t.sys.DeadModules()
	if len(dead) == 0 {
		dead = lost.Modules
	}
	t.sys.Respawn(dead...)
	// Master replicas come back empty; the broadcast inside the HVM
	// reassembly both repair tiers end with refills them.
	t.allocMasters(dead)

	full = t.dirty > 0
	if full {
		t.fullRebuilds++
		t.rebuildFromShadow()
	} else {
		t.rebuildLost(dead)
	}
	t.dirty = 0
	t.recoveries++
	t.modulesLost += len(dead)
	t.recoveryCost = t.recoveryCost.Add(t.sys.Metrics().Sub(start))
	t.degraded = false
	return full
}

// rebuildFromShadow reloads the whole index from the host key
// authority via the bulk-load path (which clears all block/region
// objects, repartitions, redistributes, and reassembles the HVM and
// block directory).
func (t *PIMTrie) rebuildFromShadow() {
	full := trie.New()
	w := 0
	// Walk a flattened snapshot of the shadow: key reconstruction from
	// the label pool is O(total label bits), where the pointer walk pays
	// a Concat chain per root-to-leaf path. Keys arrive in the same
	// lexicographic order, and the accounting below only depends on the
	// keys themselves, so the model cost is unchanged.
	shadowFlat := trie.Flatten(t.shadow)
	shadowFlat.WalkKeys(func(key bitstr.String, value uint64) {
		full.Insert(key, value)
		w += key.Words() + 1
	})
	t.sys.CPUWork(w)
	t.nKeys = full.KeyCount()
	t.dirty = 0 // entering loadFromTrie's own dirty window from a clean slate
	t.loadFromTrie(full)
}

// dirEntry is one block-directory record with its topology resolved:
// entries are sorted lexicographically by root string, and parent is
// the entry whose string is the longest proper prefix.
type dirEntry struct {
	addr     pim.Addr
	str      bitstr.String
	parent   int // index into the entries slice, or -1 for the root
	children []int
}

// dirEntries materializes the block directory in deterministic order
// with parent/child topology. Lexicographic order puts every prefix
// before its extensions, so a stack walk recovers the tree.
func (t *PIMTrie) dirEntries() []dirEntry {
	ents := make([]dirEntry, 0, len(t.blockDir))
	for a, s := range t.blockDir {
		ents = append(ents, dirEntry{addr: a, str: s, parent: -1})
	}
	sort.Slice(ents, func(i, j int) bool { return bitstr.Compare(ents[i].str, ents[j].str) < 0 })
	var stack []int
	for i := range ents {
		for len(stack) > 0 && !ents[i].str.HasPrefix(ents[stack[len(stack)-1]].str) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			ents[i].parent = p
			ents[p].children = append(ents[p].children, i)
		}
		stack = append(stack, i)
	}
	return ents
}

// rebuildLost is the targeted repair: re-derive only the lost modules'
// blocks from the shadow, re-place and re-wire them, then reassemble
// the HVM over the full directory.
func (t *PIMTrie) rebuildLost(dead []int) {
	lostMod := map[int]bool{}
	for _, mi := range dead {
		lostMod[mi] = true
	}
	ents := t.dirEntries()
	var lostIdx []int
	for i := range ents {
		if lostMod[ents[i].addr.Module] {
			lostIdx = append(lostIdx, i)
		}
	}
	// Snapshot the shadow once: every lost block re-derivation below
	// queries SubtreeKeys against the flattened arrays instead of
	// chasing pointers through the full shadow per block.
	var shadowFlat *trie.Flat
	if len(lostIdx) > 0 {
		shadowFlat = trie.Flatten(t.shadow)
	}

	// Re-derive each lost block host-side: its keys are the shadow keys
	// below its root that are not below any child block root, inserted
	// relative to the root; its mirrors are the child roots (which form
	// an antichain no retained key extends, so InsertMirror always finds
	// a fresh position).
	type rebuilt struct {
		ent     int
		bo      *blockObj
		keyless bool // zero keys and zero children: reclaim after reassembly
	}
	rebuilds := make([]rebuilt, len(lostIdx))
	w := 0
	for ri, ei := range lostIdx {
		e := &ents[ei]
		bt := trie.New()
		childRel := make([]bitstr.String, len(e.children))
		for ci, c := range e.children {
			childRel[ci] = ents[c].str.Suffix(e.str.Len())
		}
		nkeys := 0
		for _, kv := range shadowFlat.SubtreeKeys(e.str) {
			rel := kv.Key.Suffix(e.str.Len())
			under := false
			for _, cr := range childRel {
				if rel.HasPrefix(cr) {
					under = true
					break
				}
			}
			if under {
				continue
			}
			bt.Insert(rel, kv.Value)
			nkeys++
		}
		for ci, cr := range childRel {
			bt.InsertMirror(cr, uint64(ci))
		}
		val := t.h.Hash(e.str)
		bo := &blockObj{
			tr: bt, rootLen: e.str.Len(), rootVal: val, rootHash: t.h.Out(val),
			sLast: slastOf(e.str), parent: pim.NilAddr, region: pim.NilAddr,
		}
		w += bt.SizeWords() + e.str.Words() + 1
		rebuilds[ri] = rebuilt{ent: ei, bo: bo, keyless: nkeys == 0 && len(e.children) == 0}
	}
	t.sys.CPUWork(w)

	// One round: place the rebuilt blocks on uniformly random modules.
	objs := make([]pim.Sized, len(rebuilds))
	for i := range rebuilds {
		objs[i] = rebuilds[i].bo
	}
	newAddr := map[pim.Addr]pim.Addr{} // old (dead) address -> new
	for i, a := range t.place(objs, nil) {
		newAddr[ents[rebuilds[i].ent].addr] = a
	}
	trans := func(a pim.Addr) pim.Addr {
		if na, ok := newAddr[a]; ok {
			return na
		}
		return a
	}

	// One round: wire the rebuilt blocks (children + parent, with final
	// addresses), swap the moved child address in surviving parents, and
	// re-point surviving children of lost blocks at the new parent.
	var wire []pim.Task
	for _, rb := range rebuilds {
		e := &ents[rb.ent]
		children := make([]pim.Addr, len(e.children))
		for ci, c := range e.children {
			children[ci] = trans(ents[c].addr)
		}
		parent := pim.NilAddr
		if e.parent >= 0 {
			parent = trans(ents[e.parent].addr)
		}
		na, bo := newAddr[e.addr], rb.bo
		wire = append(wire, pim.Task{
			Module:    na.Module,
			SendWords: len(children) + 2,
			Run: func(m *pim.Module) pim.Resp {
				bo.children = children
				bo.parent = parent
				m.Resize(na.ID)
				return pim.Resp{}
			},
		})
	}
	for _, rb := range rebuilds {
		e := &ents[rb.ent]
		old, na := e.addr, newAddr[e.addr]
		if e.parent >= 0 && !lostMod[ents[e.parent].addr.Module] {
			pa := ents[e.parent].addr
			old, na := old, na
			wire = append(wire, pim.Task{
				Module:    pa.Module,
				SendWords: 3,
				Run: func(m *pim.Module) pim.Resp {
					bo := m.Get(pa.ID).(*blockObj)
					for ci, c := range bo.children {
						if c == old {
							bo.children[ci] = na
						}
					}
					return pim.Resp{}
				},
			})
		}
		for _, c := range e.children {
			if lostMod[ents[c].addr.Module] {
				continue
			}
			ca, na := ents[c].addr, na
			wire = append(wire, pim.Task{
				Module:    ca.Module,
				SendWords: 2,
				Run: func(m *pim.Module) pim.Resp {
					m.Get(ca.ID).(*blockObj).parent = na
					return pim.Resp{}
				},
			})
		}
	}
	t.sys.Round(wire)

	// Swap directory entries and the root-block address.
	for old, na := range newAddr {
		str := t.blockDir[old]
		delete(t.blockDir, old)
		t.blockDir[na] = str
	}
	t.rootBlock = trans(t.rootBlock)

	// Reassemble the HVM over the full directory: every block's meta is
	// recomputed host-side (root hashes from the directory strings), old
	// regions are freed, regions and the master table are rebuilt, and
	// every block is pointed at its region. A fresh region partition can
	// co-locate metas that never shared a lookup table before, so a
	// collision is possible even though the pre-crash state was valid;
	// the global re-hash heals it.
	metas := make([]*blockMeta, len(ents))
	w = 0
	for i := range ents {
		e := &ents[i]
		parent := pim.NilAddr
		if e.parent >= 0 {
			parent = trans(ents[e.parent].addr)
		}
		children := make([]pim.Addr, len(e.children))
		for ci, c := range e.children {
			children[ci] = trans(ents[c].addr)
		}
		metas[i] = &blockMeta{
			addr: trans(e.addr), parent: parent, val: t.h.Hash(e.str),
			len: e.str.Len(), sLast: slastOf(e.str), children: children,
		}
		w += e.str.Words() + 1
	}
	t.sys.CPUWork(w)
	t.freeObjects(false)
	if err := t.assembleHVM(metas); err != nil {
		t.rehash()
	}

	// A rebuilt block can come back with zero keys and zero children when
	// the shadow ran ahead of an interrupted Delete batch (the shadow is
	// updated first). Such a block must not stay matchable — the fault-
	// free run would have reclaimed it — so reclaim it now through the
	// ordinary removal path (which cascades and updates the directory).
	var empty []pim.Addr
	for _, rb := range rebuilds {
		if rb.keyless {
			if a := newAddr[ents[rb.ent].addr]; a != t.rootBlock {
				empty = append(empty, a)
			}
		}
	}
	if len(empty) > 0 {
		t.removeBlocks(empty)
	}
}
