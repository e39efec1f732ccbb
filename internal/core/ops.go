package core

// The four batch operations of §5: LongestCommonPrefix, Insert, Delete
// and SubtreeQuery. Each prepares a query trie, runs the matching
// protocol (with the collision-redo loop of §4.4.3), and post-processes
// the merged match outcome.

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// keyGroup is the share of an update batch that lands in one block: the
// unique keys whose anchor piece is a hit on that block's root.
type keyGroup struct {
	blk   pim.Addr
	words int     // wire size: each key's remainder plus two words
	n     int     // number of keys
	keys  []int32 // ordinals into the outcome's unique keys, ascending
}

// keyScratch returns the pooled per-unique-key piece and remainder
// slices, zeroed and sized to n.
func (t *PIMTrie) keyScratch(n int) ([]*piece, []bitstr.String) {
	t.pieceBuf, t.relBuf = sized(t.pieceBuf, n), sized(t.relBuf, n)
	clear(t.pieceBuf)
	clear(t.relBuf)
	return t.pieceBuf, t.relBuf
}

// groupByBlock buckets the unique keys that have an anchor piece
// (pcs[u] != nil) by that piece's block. Groups come in first-seen block
// order, which keeps task emission (and the RandModule draws any
// follow-up split consumes) deterministic for a fixed seed; each group
// lists its keys in ascending order. A group is found through its
// piece's ordinal, not through a table over block addresses, and the
// key lists are carved out of one arena, so grouping costs O(keys of
// this batch) plus mergeSharedBlocks' sort of the groups.
func (t *PIMTrie) groupByBlock(pcs []*piece, rels []bitstr.String) []keyGroup {
	groups := t.groupBuf[:0]
	for _, pc := range pcs {
		if pc != nil && pc.group < 0 {
			pc.group = int32(len(groups))
			groups = append(groups, keyGroup{blk: pc.hit.info.Block})
		}
	}
	groups = t.mergeSharedBlocks(groups)
	t.groupBuf = groups
	for u, pc := range pcs {
		if pc != nil {
			g := &groups[pc.group]
			// Shared prefixes below the anchor travel once in the real
			// protocol; charge the unmatched remainder, which dominates.
			g.words += rels[u].Words() + 2
			g.n++
		}
	}
	t.groupKeyBuf = sized(t.groupKeyBuf, len(pcs))
	arena := t.groupKeyBuf
	for i := range groups {
		g := &groups[i]
		g.keys, arena = arena[:0:g.n], arena[g.n:]
	}
	for u, pc := range pcs {
		if pc != nil {
			g := &groups[pc.group]
			g.keys = append(g.keys, int32(u))
		}
	}
	return groups
}

// mergeSharedBlocks folds the groups of pieces that name one block into
// the first seen of them, so a block gets one task. Distinct hits name
// distinct blocks unless a query-side hash false positive slipped
// through verification, so there is almost never anything to fold;
// finding out takes a sort of the group ordinals by block address.
func (t *PIMTrie) mergeSharedBlocks(groups []keyGroup) []keyGroup {
	t.groupOrdBuf, t.groupToBuf = sized(t.groupOrdBuf, len(groups)), sized(t.groupToBuf, len(groups))
	ord, to := t.groupOrdBuf, t.groupToBuf
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		x, y := groups[a].blk, groups[b].blk
		return cmp.Or(cmp.Compare(x.Module, y.Module), cmp.Compare(x.ID, y.ID), cmp.Compare(a, b))
	})
	// to[g] is first the head of g's run in ord — the first-seen group
	// with g's block — and then g's ordinal among the groups kept.
	shared := false
	for k, g := range ord {
		to[g] = g
		if k > 0 && groups[g].blk == groups[ord[k-1]].blk {
			to[g], shared = to[ord[k-1]], true
		}
	}
	if !shared {
		return groups
	}
	kept := groups[:0]
	for g := range groups {
		if to[g] == int32(g) {
			to[g] = int32(len(kept))
			kept = append(kept, groups[g])
		} else {
			to[g] = to[to[g]] // the head came earlier and is renumbered already
		}
	}
	for _, pc := range t.pieceArena[:t.pieceUsed] {
		if pc.group >= 0 {
			pc.group = to[pc.group]
		}
	}
	return kept
}

// matchWithRedo runs the matching protocol, re-hashing and redoing the
// batch whenever verification detects a hash collision. A staged
// preparation (pb, may be nil) is consumed on the first attempt if its
// hash function is still installed; redo attempts always re-prepare
// because the re-hash invalidated the staged node hashes.
func (t *PIMTrie) matchWithRedo(batch []bitstr.String, pb *Prepared) *matchOutcome {
	for attempt := 0; attempt <= t.cfg.MaxRedo; attempt++ {
		endPrep := t.sys.Phase("prepare")
		p := t.consumePrepared(pb)
		if p == nil {
			p = t.prepare(batch)
		}
		pb = nil
		endPrep()
		out, err := t.match(p)
		if err == nil {
			return out
		}
		t.redos++
		t.rehash()
	}
	panic("core: exceeded MaxRedo matching attempts; widen HashWidth")
}

// LCP answers a batch of LongestCommonPrefix queries (§5.1): result[i]
// is the length in bits of the longest prefix of batch[i] present in the
// index (as a prefix of any stored key).
func (t *PIMTrie) LCP(batch []bitstr.String) []int { return t.lcpBatch(batch, nil) }

// LCPPrepared is LCP consuming a staged host-side preparation (see
// Prepare); model metrics are identical to LCP on the same batch.
func (t *PIMTrie) LCPPrepared(pb *Prepared) []int { return t.lcpBatch(pb.batch, pb) }

func (t *PIMTrie) lcpBatch(batch []bitstr.String, pb *Prepared) []int {
	if len(batch) == 0 {
		return nil
	}
	defer t.beginBatch("LCP")()
	var res []int
	t.withRecovery(false, func() { res = t.lcpOnce(batch, pb) })
	return res
}

func (t *PIMTrie) lcpOnce(batch []bitstr.String, pb *Prepared) []int {
	defer t.sys.Phase("lcp")()
	out := t.matchWithRedo(batch, pb)
	res := make([]int, len(batch))
	for i := range batch {
		res[i] = out.lcpOf(out.qt.Slot[i])
	}
	return res
}

// Get answers a batch of exact lookups: values[i], found[i] reflect
// batch[i]. Get is LCP plus the exact-node value check, provided because
// every practical index needs point lookups.
func (t *PIMTrie) Get(batch []bitstr.String) (values []uint64, found []bool) {
	return t.getBatch(batch, nil)
}

// GetPrepared is Get consuming a staged preparation; see Prepare.
func (t *PIMTrie) GetPrepared(pb *Prepared) (values []uint64, found []bool) {
	return t.getBatch(pb.batch, pb)
}

func (t *PIMTrie) getBatch(batch []bitstr.String, pb *Prepared) (values []uint64, found []bool) {
	if len(batch) == 0 {
		return []uint64{}, []bool{}
	}
	defer t.beginBatch("Get")()
	t.withRecovery(false, func() { values, found = t.getOnce(batch, pb) })
	return values, found
}

func (t *PIMTrie) getOnce(batch []bitstr.String, pb *Prepared) (values []uint64, found []bool) {
	values = make([]uint64, len(batch))
	found = make([]bool, len(batch))
	defer t.sys.Phase("get")()
	out := t.matchWithRedo(batch, pb)
	for i := range batch {
		u := out.qt.Slot[i]
		n := out.qt.Nodes[u]
		if ex := out.exact[n.Index]; out.reach[n.Index] == n.Depth && ex.hasValue {
			values[i], found[i] = ex.value, true
		}
	}
	return
}

// Insert stores a batch of key-value pairs (§5.2). Later duplicates in
// the batch win, matching sequential insertion semantics.
func (t *PIMTrie) Insert(keys []bitstr.String, values []uint64) {
	t.insertBatch(keys, values, nil)
}

// InsertPrepared is Insert consuming a staged preparation of the key
// batch; see Prepare.
func (t *PIMTrie) InsertPrepared(pb *Prepared, values []uint64) {
	t.insertBatch(pb.batch, values, pb)
}

func (t *PIMTrie) insertBatch(keys []bitstr.String, values []uint64, pb *Prepared) {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("core: Insert keys/values length mismatch: %d keys, %d values", len(keys), len(values)))
	}
	if len(keys) == 0 {
		return
	}
	defer t.beginBatch("Insert")()
	t.shadowInsert(keys, values)
	t.withRecovery(true, func() { t.insertOnce(keys, values, pb) })
	t.syncKeyCount()
}

func (t *PIMTrie) insertOnce(keys []bitstr.String, values []uint64, pb *Prepared) {
	defer t.sys.Phase("insert")()
	out := t.matchWithRedo(keys, pb)
	endApply := t.sys.Phase("apply")
	t.dirty++ // module state is mixed until the apply (and any split) lands
	// Resolve batch duplicates: last write wins.
	val := make([]uint64, len(out.qt.Keys))
	for i := range keys {
		val[out.qt.Slot[i]] = values[i]
	}
	// Group keys by anchor block: each key is inserted into the block of
	// its bottommost verified hit, as the remainder relative to that
	// block's root. Per-key remainder extraction (the allocating part)
	// fans out; the grouping stays serial.
	pcs, rels := t.keyScratch(len(out.qt.Keys))
	parallel.For(len(out.qt.Keys), func(u int) {
		pc := out.anchorPiece[out.qt.Nodes[u].Index]
		pcs[u] = pc
		rels[u] = out.qt.Keys[u].Suffix(pc.hit.depth)
	})
	groups := t.groupByBlock(pcs, rels)
	type insReply struct {
		newKeys   int
		sizeWords int
		region    pim.Addr
		keyCount  int
	}
	tasks := t.taskBuf[:0]
	for _, g := range groups {
		tasks = append(tasks, pim.Task{
			Module:    g.blk.Module,
			SendWords: g.words,
			Run: func(m *pim.Module) pim.Resp {
				bo := m.Get(g.blk.ID).(*blockObj)
				fresh := 0
				work := 0
				for _, u := range g.keys {
					if bo.tr.Insert(rels[u], val[u]) {
						fresh++
					}
					work += rels[u].Words() + 1
				}
				m.Work(work)
				m.Resize(g.blk.ID)
				return pim.Resp{RecvWords: 4, Value: insReply{
					newKeys: fresh, sizeWords: bo.tr.SizeWords(), region: bo.region, keyCount: bo.tr.KeyCount(),
				}}
			},
		})
	}
	t.taskBuf = tasks
	var oversized []pim.Addr
	for i, r := range t.sys.Round(tasks) {
		rep := r.Value.(insReply)
		t.nKeys += rep.newKeys
		if rep.sizeWords > t.cfg.BlockWords {
			oversized = append(oversized, groups[i].blk)
		}
	}
	endApply()
	if len(oversized) > 0 {
		t.splitBlocks(oversized)
	}
	t.dirty--
}

// Delete removes a batch of keys (§5.2), reporting per key whether it
// was present.
func (t *PIMTrie) Delete(keys []bitstr.String) []bool { return t.deleteBatch(keys, nil) }

// DeletePrepared is Delete consuming a staged preparation; see Prepare.
func (t *PIMTrie) DeletePrepared(pb *Prepared) []bool { return t.deleteBatch(pb.batch, pb) }

func (t *PIMTrie) deleteBatch(keys []bitstr.String, pb *Prepared) []bool {
	if len(keys) == 0 {
		return []bool{}
	}
	defer t.beginBatch("Delete")()
	// In recoverable mode the result comes from the shadow: it encodes
	// exactly the sequential-duplicate semantics (first occurrence of a
	// present key reports true), and it survives a mid-batch recovery
	// that replays or rebuilds the distributed application.
	var shadowRes []bool
	if t.recoverable {
		end := t.sys.Phase("shadow")
		shadowRes = make([]bool, len(keys))
		// Whole-batch write lock: a concurrent Snapshot sees all of
		// this batch's deletes or none of them (see snapshot.go).
		t.shadowMu.Lock()
		w := 0
		for i, k := range keys {
			shadowRes[i] = t.shadow.Delete(k)
			w += k.Words() + 1
		}
		t.shadowVer++
		t.shadowMu.Unlock()
		t.sys.CPUWork(w)
		end()
	}
	var res []bool
	t.withRecovery(true, func() { res = t.deleteOnce(keys, pb) })
	t.syncKeyCount()
	if t.recoverable {
		return shadowRes
	}
	return res
}

func (t *PIMTrie) deleteOnce(keys []bitstr.String, pb *Prepared) []bool {
	res := make([]bool, len(keys))
	defer t.sys.Phase("delete")()
	out := t.matchWithRedo(keys, pb)
	endApply := t.sys.Phase("apply")
	t.dirty++ // module state is mixed until the apply (and any removal) lands
	// Presence checks and remainder extraction fan out; grouping stays
	// serial. pcs[u] stays nil for a key that is not stored.
	pcs, rels := t.keyScratch(len(out.qt.Keys))
	parallel.For(len(out.qt.Keys), func(u int) {
		n := out.qt.Nodes[u]
		if out.reach[n.Index] != n.Depth || !out.exact[n.Index].hasValue {
			return
		}
		pc := out.anchorPiece[n.Index]
		pcs[u] = pc
		rels[u] = out.qt.Keys[u].Suffix(pc.hit.depth)
	})
	groups := t.groupByBlock(pcs, rels)
	type delReply struct {
		removed  int
		empty    bool
		region   pim.Addr
		isLeaf   bool
		rootHash uint64
	}
	tasks := t.taskBuf[:0]
	for _, g := range groups {
		tasks = append(tasks, pim.Task{
			Module:    g.blk.Module,
			SendWords: g.words,
			Run: func(m *pim.Module) pim.Resp {
				bo := m.Get(g.blk.ID).(*blockObj)
				removed, work := 0, 0
				for _, u := range g.keys {
					if bo.tr.Delete(rels[u]) {
						removed++
					}
					work += rels[u].Words() + 1
				}
				m.Work(work)
				m.Resize(g.blk.ID)
				live := 0
				for _, c := range bo.children {
					if !c.IsNil() {
						live++
					}
				}
				return pim.Resp{RecvWords: 4, Value: delReply{
					removed: removed,
					empty:   bo.tr.KeyCount() == 0 && live == 0,
					region:  bo.region, rootHash: bo.rootHash,
				}}
			},
		})
	}
	t.taskBuf = tasks
	var emptied []pim.Addr
	for i, r := range t.sys.Round(tasks) {
		rep := r.Value.(delReply)
		t.nKeys -= rep.removed
		if blk := groups[i].blk; rep.empty && blk != t.rootBlock {
			emptied = append(emptied, blk)
		}
	}
	endApply()
	if len(emptied) > 0 {
		t.removeBlocks(emptied)
	}
	t.dirty--
	// Sequential semantics for duplicate batch entries: only the first
	// occurrence of a present key reports true.
	reported := make([]bool, len(out.qt.Keys))
	for i := range keys {
		u := out.qt.Slot[i]
		if pcs[u] != nil && !reported[u] {
			res[i] = true
			reported[u] = true
		}
	}
	return res
}

// SubtreeQuery returns every stored (key, value) whose key extends the
// given prefix (§5.3), in lexicographic order.
func (t *PIMTrie) SubtreeQuery(prefix bitstr.String) []trie.KV {
	return t.SubtreeQueryBatch([]bitstr.String{prefix})[0]
}

// SubtreeQueryBatch answers a batch of subtree queries (the paper's
// operations are all batch-parallel, §4 "Overview"): one matching pass
// locates every prefix, then block contents are gathered level by level
// over the block trees below the loci, with all queries sharing each
// BFS round. results[i] corresponds to prefixes[i]; overlapping queries
// fetch their blocks independently (each result must be complete).
func (t *PIMTrie) SubtreeQueryBatch(prefixes []bitstr.String) [][]trie.KV {
	return t.subtreeBatch(prefixes, nil)
}

// SubtreeQueryPrepared is SubtreeQueryBatch consuming a staged
// preparation of the prefix batch; see Prepare.
func (t *PIMTrie) SubtreeQueryPrepared(pb *Prepared) [][]trie.KV {
	return t.subtreeBatch(pb.batch, pb)
}

func (t *PIMTrie) subtreeBatch(prefixes []bitstr.String, pb *Prepared) [][]trie.KV {
	if len(prefixes) == 0 {
		return [][]trie.KV{}
	}
	defer t.beginBatch("SubtreeQuery")()
	var results [][]trie.KV
	t.withRecovery(false, func() { results = t.subtreeOnce(prefixes, pb) })
	return results
}

func (t *PIMTrie) subtreeOnce(prefixes []bitstr.String, pb *Prepared) [][]trie.KV {
	results := make([][]trie.KV, len(prefixes))
	defer t.sys.Phase("subtree")()
	out := t.matchWithRedo(prefixes, pb)
	endGather := t.sys.Phase("push-pull")

	type fetch struct {
		q     int // query index
		addr  pim.Addr
		abs   bitstr.String // absolute string of the block root
		locus bitstr.String // collect only below this relative position
	}
	var level []fetch
	for i, prefix := range prefixes {
		u := out.qt.Slot[i]
		n := out.qt.Nodes[u]
		if out.reach[n.Index] != n.Depth {
			continue // prefix not present: empty result
		}
		pc := out.anchorPiece[n.Index]
		level = append(level, fetch{
			q:     i,
			addr:  pc.hit.info.Block,
			abs:   prefix.Prefix(pc.hit.depth),
			locus: prefix.Suffix(pc.hit.depth),
		})
	}
	for len(level) > 0 {
		tasks := make([]pim.Task, len(level))
		parallel.For(len(level), func(i int) {
			f := level[i]
			tasks[i] = pim.Task{
				Module:    f.addr.Module,
				SendWords: f.locus.Words() + 2,
				Run: func(m *pim.Module) pim.Resp {
					bo := m.Get(f.addr.ID).(*blockObj)
					kvs := bo.tr.SubtreeKeys(f.locus)
					// Mirrors below the locus name child blocks to fetch.
					var kids []mirrorOut
					bo.tr.WalkPreorder(func(nd *trie.Node) bool {
						if nd.Mirror {
							rel := trie.NodeString(nd)
							if rel.HasPrefix(f.locus) {
								kids = append(kids, mirrorOut{addr: bo.children[nd.Value], rel: rel})
							}
							return false
						}
						return true
					})
					w := 0
					for _, kv := range kvs {
						w += kv.Key.Words() + 2
					}
					m.Work(bo.tr.NodeCount())
					return pim.Resp{RecvWords: w + len(kids)*3 + 1, Value: subtreeReply{kvs: kvs, kids: kids}}
				},
			}
		})
		var next []fetch
		for i, r := range t.sys.Round(tasks) {
			rep := r.Value.(subtreeReply)
			f := level[i]
			for _, kv := range rep.kvs {
				results[f.q] = append(results[f.q], trie.KV{Key: f.abs.Concat(kv.Key), Value: kv.Value})
			}
			for _, k := range rep.kids {
				if k.addr.IsNil() {
					continue
				}
				next = append(next, fetch{q: f.q, addr: k.addr, abs: f.abs.Concat(k.rel), locus: bitstr.Empty})
			}
		}
		level = next
	}
	endGather()
	// Each query's result sorts independently.
	parallel.For(len(results), func(i int) { sortKVs(results[i]) })
	return results
}

type mirrorOut struct {
	addr pim.Addr
	rel  bitstr.String
}

type subtreeReply struct {
	kvs  []trie.KV
	kids []mirrorOut
}

// sortKVsRadixCutoff is the result size above which the shared parallel
// MSD radix sort (bitstr.ArgSort, the same core behind query-trie
// construction) beats the comparison sort.
const sortKVsRadixCutoff = 2048

// sortKVs orders results lexicographically (blocks return their own
// contents sorted, but block subtrees interleave). Small results take
// the stdlib comparison sort; large ones go through the shared parallel
// radix ArgSort over the packed key words. Keys within one result are
// unique (each stored key appears once), so tie order cannot differ
// between the two paths; with ties (which tests construct directly) both
// paths are still deterministic for a fixed input.
func sortKVs(kvs []trie.KV) {
	if len(kvs) < 2 {
		return
	}
	if len(kvs) <= sortKVsRadixCutoff {
		slices.SortFunc(kvs, func(a, b trie.KV) int { return bitstr.Compare(a.Key, b.Key) })
		return
	}
	keys := make([]bitstr.String, len(kvs))
	idx := make([]int, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
		idx[i] = i
	}
	bitstr.ArgSort(keys, idx, parallel.MaxProcs())
	sorted := make([]trie.KV, len(kvs))
	for i, j := range idx {
		sorted[i] = kvs[j]
	}
	copy(kvs, sorted)
}
