package core

// The batch operations of §5 — LongestCommonPrefix, Get, Insert, Delete
// and SubtreeQuery — as the tagged sections of one Batch. Every one of
// them begins with the same §4 match, so Apply matches the union of the
// batch's keys once (with the collision-redo loop of §4.4.3), answers
// every read section from that outcome, applies the insert section from
// it too, and matches again only for a delete section that follows an
// insert section. A batch is therefore serially equivalent to its reads,
// then its inserts, then its deletes. The per-op methods are one-section
// batches.

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// Batch is one batch of tagged sections. Any section may be empty.
// Inserts pair with Values; within a section, later duplicate inserts
// win and duplicate deletes report true once, as if applied one by one.
type Batch struct {
	Gets     []bitstr.String
	LCPs     []bitstr.String
	Subtrees []bitstr.String // prefixes
	Inserts  []bitstr.String
	Values   []uint64
	Deletes  []bitstr.String
}

// Result answers a Batch section by section, position by position.
type Result struct {
	Values []uint64 // per Gets key: the stored value, when Found
	Found  []bool   // per Gets key
	LCPs   []int    // per LCPs key: bits of its longest prefix present
	// Subtrees holds, per prefix, the stored pairs extending it in
	// lexicographic order.
	Subtrees [][]trie.KV
	Deleted  []bool // per Deletes key: whether the delete found it
}

// The sections of a batch, in the order the batch is serially
// equivalent to.
const (
	secGet = iota
	secLCP
	secSubtree
	secInsert
	secDelete
	numSections
)

var sectionPhase = [numSections]string{"get", "lcp", "subtree", "insert", "delete"}

// epoch is one Apply call in progress. A module-loss repair restarts the
// unfinished sections only, so done records what is already answered or
// applied.
type epoch struct {
	keys     [numSections][]bitstr.String
	values   []uint64
	res      Result
	done     [numSections]bool
	off      [numSections]int // where each section starts in the stage's batch
	shadowed bool             // the writes are in the host shadow
}

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
// batch whenever verification detects a hash collision. Every attempt
// prepares the batch under the hash function installed at that moment.
func (t *PIMTrie) matchWithRedo(batch []bitstr.String) *matchOutcome {
	for attempt := 0; attempt <= t.cfg.MaxRedo; attempt++ {
		endPrep := t.sys.Phase("prepare")
		p := t.prepare(batch)
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

// Apply runs one batch (see Batch): it answers every read section from
// the state before the batch, then stores the inserts, then removes the
// deletes.
func (t *PIMTrie) Apply(b Batch) Result {
	if len(b.Inserts) != len(b.Values) {
		panic(fmt.Sprintf("core: Batch has %d inserts but %d values", len(b.Inserts), len(b.Values)))
	}
	e := epoch{
		keys:   [numSections][]bitstr.String{b.Gets, b.LCPs, b.Subtrees, b.Inserts, b.Deletes},
		values: b.Values,
		res: Result{
			Values:   make([]uint64, len(b.Gets)),
			Found:    make([]bool, len(b.Gets)),
			LCPs:     make([]int, len(b.LCPs)),
			Subtrees: make([][]trie.KV, len(b.Subtrees)),
			Deleted:  make([]bool, len(b.Deletes)),
		},
	}
	for s, keys := range e.keys {
		e.done[s] = len(keys) == 0
	}
	if !e.pending() {
		return e.res
	}
	defer t.beginBatch("Apply")()
	t.withRecovery(func() { t.runEpoch(&e) }, func(full bool) bool {
		// A full rebuild reloads the shadow, which already holds every
		// write of the batch: replaying them would be wrong for deletes
		// and wasteful for inserts. A targeted repair restored the state
		// before the interrupted section, which then runs again.
		if full && e.shadowed {
			e.done[secInsert], e.done[secDelete] = true, true
		}
		return !e.pending()
	})
	if e.shadowed {
		t.syncKeyCount()
	}
	return e.res
}

func (e *epoch) pending() bool { return slices.Contains(e.done[:], false) }

// runEpoch runs the batch's stages until every section is done.
func (t *PIMTrie) runEpoch(e *epoch) {
	for e.pending() {
		t.runStage(e)
	}
}

// runStage runs one match and everything it can answer: the pending read
// sections and the first pending write section. The writes reach the
// shadow once no read is left to answer from the state before them.
func (t *PIMTrie) runStage(e *epoch) {
	if e.done[secGet] && e.done[secLCP] && e.done[secSubtree] {
		t.shadowWrites(e)
	}
	// The stage batch is the pending sections in section order, up to and
	// including the first pending write section.
	last, n, sections := 0, 0, 0
	for s := range e.keys {
		if e.done[s] {
			continue
		}
		e.off[s], last = n, s
		n += len(e.keys[s])
		sections++
		if s >= secInsert {
			break
		}
	}
	batch, name := e.keys[last], sectionPhase[last]
	if sections > 1 {
		batch, name = make([]bitstr.String, 0, n), "epoch"
		for s := 0; s <= last; s++ {
			if !e.done[s] {
				batch = append(batch, e.keys[s]...)
			}
		}
	}
	defer t.sys.Phase(name)()
	out := t.matchWithRedo(batch)
	if !e.done[secGet] {
		t.answerGets(out, e.off[secGet], e.res.Values, e.res.Found)
		e.done[secGet] = true
	}
	if !e.done[secLCP] {
		for i := range e.res.LCPs {
			e.res.LCPs[i] = out.lcpOf(out.qt.Slot[e.off[secLCP]+i])
		}
		e.done[secLCP] = true
	}
	if !e.done[secSubtree] {
		t.gatherSubtrees(out, e.off[secSubtree], e.keys[secSubtree], e.res.Subtrees)
		e.done[secSubtree] = true
	}
	t.shadowWrites(e)
	switch last {
	case secInsert:
		t.applyInserts(out, e.off[secInsert], e.keys[secInsert], e.values)
		e.done[secInsert] = true
	case secDelete:
		found := e.res.Deleted
		if t.recoverable {
			found = nil // the shadow already answered, and a repair cannot change that
		}
		t.applyDeletes(out, e.off[secDelete], e.keys[secDelete], found)
		e.done[secDelete] = true
	}
}

// sectionMarks reports, per unique key of out, whether positions
// [lo, lo+n) of the matched batch hold it. It returns nil when those
// positions are the whole batch, so every unique key is the section's.
func (t *PIMTrie) sectionMarks(out *matchOutcome, lo, n int) []bool {
	if lo == 0 && n == len(out.qt.Slot) {
		return nil
	}
	t.markBuf = sized(t.markBuf, len(out.qt.Keys))
	clear(t.markBuf)
	for _, u := range out.qt.Slot[lo : lo+n] {
		t.markBuf[u] = true
	}
	return t.markBuf
}

// answerGets is the exact-node value check on top of the match: Get is
// LCP plus it, provided because every practical index needs point
// lookups.
func (t *PIMTrie) answerGets(out *matchOutcome, lo int, values []uint64, found []bool) {
	for i := range values {
		u := out.qt.Slot[lo+i]
		n := out.qt.Nodes[u]
		if ex := out.exact[n.Index]; out.reach[n.Index] == n.Depth && ex.hasValue {
			values[i], found[i] = ex.value, true
		}
	}
}

// applyInserts stores the insert section (§5.2) at positions lo.. of
// the matched batch.
func (t *PIMTrie) applyInserts(out *matchOutcome, lo int, keys []bitstr.String, values []uint64) {
	endApply := t.sys.Phase("apply")
	t.dirty++ // module state is mixed until the apply (and any split) lands
	// Resolve batch duplicates: last write wins.
	val := make([]uint64, len(out.qt.Keys))
	for i := range keys {
		val[out.qt.Slot[lo+i]] = values[i]
	}
	// Group keys by anchor block: each key is inserted into the block of
	// its bottommost verified hit, as the remainder relative to that
	// block's root. Per-key remainder extraction (the allocating part)
	// fans out; the grouping stays serial.
	mine := t.sectionMarks(out, lo, len(keys))
	pcs, rels := t.keyScratch(len(out.qt.Keys))
	parallel.For(len(out.qt.Keys), func(u int) {
		if mine != nil && !mine[u] {
			return
		}
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

// applyDeletes removes the delete section (§5.2) at positions lo.. of
// the matched batch and, when found is not nil, reports per key whether
// it was present.
func (t *PIMTrie) applyDeletes(out *matchOutcome, lo int, keys []bitstr.String, found []bool) {
	endApply := t.sys.Phase("apply")
	t.dirty++ // module state is mixed until the apply (and any removal) lands
	// Presence checks and remainder extraction fan out; grouping stays
	// serial. pcs[u] stays nil for a key that is not stored.
	mine := t.sectionMarks(out, lo, len(keys))
	pcs, rels := t.keyScratch(len(out.qt.Keys))
	parallel.For(len(out.qt.Keys), func(u int) {
		n := out.qt.Nodes[u]
		if (mine != nil && !mine[u]) || out.reach[n.Index] != n.Depth || !out.exact[n.Index].hasValue {
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
	if found == nil {
		return
	}
	// Sequential semantics for duplicate batch entries: only the first
	// occurrence of a present key reports true.
	reported := make([]bool, len(out.qt.Keys))
	for i := range keys {
		u := out.qt.Slot[lo+i]
		if pcs[u] != nil && !reported[u] {
			found[i] = true
			reported[u] = true
		}
	}
}

// gatherSubtrees answers the subtree section (§5.3) at positions lo..
// of the matched batch: block contents are gathered level by level over
// the block trees below the loci, with all queries sharing each BFS
// round. Overlapping queries fetch their blocks independently (each
// result must be complete). A gather rerun after a module-loss repair
// starts from empty results.
func (t *PIMTrie) gatherSubtrees(out *matchOutcome, lo int, prefixes []bitstr.String, results [][]trie.KV) {
	clear(results)
	endGather := t.sys.Phase("push-pull")
	type fetch struct {
		q     int // query index
		addr  pim.Addr
		abs   bitstr.String // absolute string of the block root
		locus bitstr.String // collect only below this relative position
	}
	var level []fetch
	for i, prefix := range prefixes {
		u := out.qt.Slot[lo+i]
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
}

// LCP answers a batch of LongestCommonPrefix queries (§5.1): result[i]
// is the length in bits of the longest prefix of batch[i] present in the
// index (as a prefix of any stored key).
func (t *PIMTrie) LCP(batch []bitstr.String) []int { return t.Apply(Batch{LCPs: batch}).LCPs }

// Get answers a batch of exact lookups: values[i], found[i] reflect
// batch[i].
func (t *PIMTrie) Get(batch []bitstr.String) (values []uint64, found []bool) {
	r := t.Apply(Batch{Gets: batch})
	return r.Values, r.Found
}

// Insert stores a batch of key-value pairs (§5.2). Later duplicates in
// the batch win, matching sequential insertion semantics.
func (t *PIMTrie) Insert(keys []bitstr.String, values []uint64) {
	t.Apply(Batch{Inserts: keys, Values: values})
}

// Delete removes a batch of keys (§5.2), reporting per key whether it
// was present.
func (t *PIMTrie) Delete(keys []bitstr.String) []bool { return t.Apply(Batch{Deletes: keys}).Deleted }

// SubtreeQuery returns every stored (key, value) whose key extends the
// given prefix (§5.3), in lexicographic order.
func (t *PIMTrie) SubtreeQuery(prefix bitstr.String) []trie.KV {
	return t.SubtreeQueryBatch([]bitstr.String{prefix})[0]
}

// SubtreeQueryBatch answers a batch of subtree queries (the paper's
// operations are all batch-parallel, §4 "Overview"): one matching pass
// locates every prefix; results[i] corresponds to prefixes[i].
func (t *PIMTrie) SubtreeQueryBatch(prefixes []bitstr.String) [][]trie.KV {
	return t.Apply(Batch{Subtrees: prefixes}).Subtrees
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
