package core

// Structural maintenance (§5.2): re-partitioning blocks that outgrow
// K_B after inserts, reclaiming blocks emptied by deletes, and splitting
// regions that outgrow K_MB.
//
// The meta-tree is kept exactly isomorphic to the block tree: when a
// block splits, the meta-nodes of its surviving old children are
// re-parented under the new intermediate blocks' metas (and child-region
// references move with them), and when a region root's meta is removed
// the region splits per child subtree. This preserves the invariant the
// matching protocol relies on: every region root is a data-trie ancestor
// of all its members, and along any root-to-leaf path region membership
// is contiguous — so the nearest master hit above a block root always
// names the region holding that root's meta.

import (
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/hvm"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// splitBlocks re-partitions every oversized block into child blocks,
// distributes the children, and registers and re-parents meta-nodes.
func (t *PIMTrie) splitBlocks(oversized []pim.Addr) {
	defer t.sys.Phase("block-split")()
	// Round 1: pull the oversized blocks.
	tasks := make([]pim.Task, len(oversized))
	for i, addr := range oversized {
		addr := addr
		tasks[i] = pim.Task{
			Module:    addr.Module,
			SendWords: 1,
			Run: func(m *pim.Module) pim.Resp {
				bo := m.Get(addr.ID).(*blockObj)
				return pim.Resp{RecvWords: bo.SizeWords(), Value: bo}
			},
		}
	}
	resps := t.sys.Round(tasks)

	type newBlock struct {
		bo     *blockObj
		parent int // index into allNew, or -1 when parented by the old block
		oldIdx int // which oversized block it came from
		val    hashing.Value
		rel    bitstr.String // root string relative to the old block's root
		// pendingNew lists, in slot order, the allNew indices of the
		// children whose slots await addresses from the allocation round.
		pendingNew []int
	}
	type replacement struct {
		addr     pim.Addr
		tr       *trie.Trie
		children []pim.Addr
		region   pim.Addr
		newIdxs  []int
	}
	var allNew []newBlock
	var repls []replacement
	pulled := make([]*blockObj, len(resps))

	for oi, r := range resps {
		bo := r.Value.(*blockObj)
		pulled[oi] = bo
		cuts := dropMirrorCuts(bo.tr.Partition(t.cfg.BlockWords))
		if len(cuts) == 0 {
			continue
		}
		specs := bo.tr.ExtractBlocks(cuts)
		t.sys.CPUWork(bo.tr.SizeWords())
		// Allocate slots: spec 0 replaces the old block; the rest are new.
		slot := make([]int, len(specs)) // spec index -> allNew index (or -1)
		slot[0] = -1
		for si := 1; si < len(specs); si++ {
			sp := specs[si]
			val := t.h.Extend(bo.rootVal, sp.RootString)
			nb := &blockObj{
				tr:      sp.Trie,
				rootLen: bo.rootLen + sp.RootString.Len(),
				rootVal: val,
				sLast:   slastExtend(bo.sLast, sp.RootString),
				region:  bo.region,
			}
			nb.rootHash = t.h.Out(val)
			slot[si] = len(allNew)
			allNew = append(allNew, newBlock{bo: nb, parent: -1, oldIdx: oi, val: val, rel: sp.RootString})
		}
		// Children lists: new-cut mirrors point at new blocks, surviving
		// old mirrors keep their old addresses (Value preserved by
		// ExtractBlocks).
		for si, sp := range specs {
			newCut := map[*trie.Node]int{}
			for _, ref := range sp.Mirrors {
				newCut[ref.Node] = ref.ChildIndex
			}
			var children []pim.Addr
			var newIdxs []int
			sp.Trie.WalkPreorder(func(n *trie.Node) bool {
				if !n.Mirror {
					return true
				}
				if ci, ok := newCut[n]; ok {
					// Parent relationship resolved after allocation.
					if si == 0 {
						allNew[slot[ci]].parent = -1
					} else {
						allNew[slot[ci]].parent = slot[si]
					}
					n.Value = uint64(len(children))
					children = append(children, pim.NilAddr) // patched below
					newIdxs = append(newIdxs, slot[ci])
				} else {
					old := bo.children[n.Value]
					n.Value = uint64(len(children))
					children = append(children, old)
				}
				return false
			})
			if si == 0 {
				repls = append(repls, replacement{
					addr: oversized[oi], tr: sp.Trie, children: children,
					region: bo.region, newIdxs: newIdxs,
				})
			} else {
				allNew[slot[si]].bo.children = children
				allNew[slot[si]].pendingNew = newIdxs
			}
		}
	}
	if len(allNew) == 0 {
		return
	}

	// Round 2: allocate the new blocks on random modules.
	objs := make([]pim.Sized, len(allNew))
	for i := range allNew {
		objs[i] = allNew[i].bo
	}
	newAddr := t.place(objs, nil)
	if t.recoverable {
		// Register the new blocks in the directory; the old (replaced)
		// blocks keep their address and root string.
		for i := range allNew {
			base := t.blockDir[oversized[allNew[i].oldIdx]]
			t.blockDir[newAddr[i]] = base.Concat(allNew[i].rel)
		}
	}

	// Host: patch child slots that point at new blocks, and set parents.
	// Every other child of a new block is a surviving old block that
	// moves under it (round 3).
	type childMove struct {
		child pim.Addr
		owner int // the new block it moves under, an allNew index
	}
	var moves []childMove
	for i := range allNew {
		nb := allNew[i]
		k := 0
		for ci, c := range nb.bo.children {
			if c.IsNil() {
				nb.bo.children[ci] = newAddr[nb.pendingNew[k]]
				k++
			} else {
				moves = append(moves, childMove{child: c, owner: i})
			}
		}
	}
	for _, rp := range repls {
		k := 0
		for ci := range rp.children {
			if rp.children[ci].IsNil() {
				rp.children[ci] = newAddr[rp.newIdxs[k]]
				k++
			}
		}
	}
	for i := range allNew {
		if allNew[i].parent >= 0 {
			allNew[i].bo.parent = newAddr[allNew[i].parent]
		} else {
			allNew[i].bo.parent = oversized[allNew[i].oldIdx]
		}
	}

	// Round 3: install the replacement tries and fix the parent pointers
	// of surviving old children that moved under a new block; their
	// replies carry the (region, rootHash) needed to re-parent metas.
	var fix []pim.Task
	moveStart := len(repls)
	for _, rp := range repls {
		rp := rp
		fix = append(fix, pim.Task{
			Module:    rp.addr.Module,
			SendWords: rp.tr.SizeWords() + len(rp.children) + 2,
			Run: func(m *pim.Module) pim.Resp {
				bo := m.Get(rp.addr.ID).(*blockObj)
				bo.tr = rp.tr
				bo.children = rp.children
				m.Resize(rp.addr.ID)
				return pim.Resp{}
			},
		})
	}
	for _, mv := range moves {
		c, na := mv.child, newAddr[mv.owner]
		fix = append(fix, pim.Task{
			Module:    c.Module,
			SendWords: 2,
			Run: func(m *pim.Module) pim.Resp {
				bo := m.Get(c.ID).(*blockObj)
				bo.parent = na
				return pim.Resp{RecvWords: 3, Value: [2]any{bo.region, bo.rootHash}}
			},
		})
	}
	fixResps := t.sys.Round(fix)

	// Round 4: per region, insert the new metas (parents first — allNew
	// is in preorder per split block) and re-parent the moved children.
	type metaIns struct {
		parentHash uint64
		node       *hvm.MetaNode
	}
	type reparent struct {
		childHash   uint64
		childRegion pim.Addr
		fromHash    uint64 // the split block's hash (holds the region ref)
		ownerHash   uint64
	}
	insByRegion := map[pim.Addr][]metaIns{}
	repByRegion := map[pim.Addr][]reparent{}
	var regionOrder []pim.Addr // first-seen order for deterministic emission
	for i, nb := range allNew {
		if _, seen := insByRegion[nb.bo.region]; !seen {
			regionOrder = append(regionOrder, nb.bo.region)
		}
		parentHash := uint64(0)
		if nb.parent >= 0 {
			parentHash = allNew[nb.parent].bo.rootHash
		} else {
			parentHash = pulled[nb.oldIdx].rootHash
		}
		hashPre, srem := t.pivotAug(nb.bo.rootVal, nb.bo.sLast)
		insByRegion[nb.bo.region] = append(insByRegion[nb.bo.region], metaIns{
			parentHash: parentHash,
			node: &hvm.MetaNode{
				Hash: nb.bo.rootHash, Len: nb.bo.rootLen, SLast: nb.bo.sLast, Block: newAddr[i],
				HashPre: hashPre, SRem: srem,
			},
		})
	}
	for mi, mv := range moves {
		pair := fixResps[moveStart+mi].Value.([2]any)
		childRegion := pair[0].(pim.Addr)
		childHash := pair[1].(uint64)
		owner := allNew[mv.owner]
		old := pulled[owner.oldIdx]
		repByRegion[old.region] = append(repByRegion[old.region], reparent{
			childHash:   childHash,
			childRegion: childRegion,
			fromHash:    old.rootHash,
			ownerHash:   owner.bo.rootHash,
		})
	}
	type regReply struct {
		collided bool
		size     int
		bound    int // the region's depth bound after the update
	}
	rTasks := make([]pim.Task, 0, len(insByRegion))
	rAddrs := make([]pim.Addr, 0, len(insByRegion))
	for _, ra := range regionOrder {
		ra := ra
		ins := insByRegion[ra]
		reps := repByRegion[ra]
		rTasks = append(rTasks, pim.Task{
			Module:    ra.Module,
			SendWords: len(ins)*(hvm.NodeCostWords+1) + len(reps)*3,
			Run: func(m *pim.Module) pim.Resp {
				ro := m.Get(ra.ID).(*regionObj)
				collided := false
				for _, in := range ins {
					parent := ro.r.Lookup(in.parentHash)
					if parent == nil {
						// Only possible under a hash collision mangling the
						// lookup structure; heal with a global re-hash.
						collided = true
						continue
					}
					if err := ro.r.Insert(parent, in.node); err != nil {
						collided = true
					}
				}
				for _, rp := range reps {
					owner := ro.r.Lookup(rp.ownerHash)
					if owner == nil {
						collided = true
						continue
					}
					if rp.childRegion == ra {
						child := ro.r.Lookup(rp.childHash)
						if child == nil {
							collided = true
							continue
						}
						ro.r.Reparent(child, owner)
						continue
					}
					from := ro.r.Lookup(rp.fromHash)
					if from == nil || !ro.r.MoveChildRegion(from, owner, rp.childRegion) {
						// The reference may legitimately be missing when the
						// child's region split moved it; harmless.
						continue
					}
				}
				m.Resize(ra.ID)
				m.Work(len(ins) + len(reps))
				return pim.Resp{RecvWords: 3, Value: regReply{collided: collided, size: ro.r.Len(), bound: ro.r.MaxLen()}}
			},
		})
		rAddrs = append(rAddrs, ra)
	}
	var overRegions []pim.Addr
	collided := false
	for i, r := range t.sys.Round(rTasks) {
		rep := r.Value.(regReply)
		if rep.collided {
			collided = true
		}
		t.regionBound[rAddrs[i]] = rep.bound
		if rep.size > t.cfg.MetaBlockMax {
			overRegions = append(overRegions, rAddrs[i])
		}
	}
	if collided {
		t.redos++
		t.rehash() // rebuilds all hash structures consistently
		return
	}
	if len(overRegions) > 0 {
		t.splitRegions(overRegions)
	}
}

// splitRegions pulls each oversized region, splits it with the optimal
// cut (Lemma 4.5) until all pieces fit, redistributes the new pieces,
// updates the master table and the host's region bounds, and re-points
// the moved blocks.
func (t *PIMTrie) splitRegions(over []pim.Addr) {
	defer t.sys.Phase("meta-split")()
	// Round 1: pull regions.
	tasks := make([]pim.Task, len(over))
	for i, ra := range over {
		ra := ra
		tasks[i] = pim.Task{
			Module:    ra.Module,
			SendWords: 1,
			Run: func(m *pim.Module) pim.Resp {
				ro := m.Get(ra.ID).(*regionObj)
				return pim.Resp{RecvWords: ro.SizeWords(), Value: ro}
			},
		}
	}
	resps := t.sys.Round(tasks)

	var parts []regionPart
	for _, r := range resps {
		ro := r.Value.(*regionObj)
		parts = append(parts, t.splitToFit(ro.r)...)
		t.sys.CPUWork(ro.SizeWords())
	}
	if len(parts) == 0 {
		return
	}
	// Round 2: allocate the new regions.
	partAddr := t.placeRegions(parts)
	for i, r := range resps {
		t.regionBound[over[i]] = r.Value.(*regionObj).r.MaxLen()
	}
	// The source regions shrank in place: charge a write-back resize.
	resize := make([]pim.Task, len(over))
	for i, ra := range over {
		ra := ra
		resize[i] = pim.Task{Module: ra.Module, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			m.Resize(ra.ID)
			return pim.Resp{}
		}}
	}
	t.sys.Round(resize)
	// Master delta for the new region roots.
	add := map[uint64]masterEntry{}
	for i, p := range parts {
		r := p.reg.Root
		add[r.Hash] = masterEntry{Region: partAddr[i], Len: r.Len, SLast: r.SLast, Block: r.Block}
	}
	if err := t.masterDelta(add); err != nil {
		t.redos++
		t.rehash()
		return
	}
	// Round: point the moved blocks at their new regions.
	t.pointBlocksAtRegions(parts, partAddr)
}

// removeBlocks reclaims blocks emptied by deletions: the block's
// meta-node is removed from its region (splitting the region when its
// root goes with multiple child subtrees), the parent's mirror leaf is
// detached and its children slot nulled, and the block object is freed.
// Reclamation cascades to parents that become empty.
func (t *PIMTrie) removeBlocks(emptied []pim.Addr) {
	defer t.sys.Phase("block-remove")()
	for len(emptied) > 0 {
		// Round 1: fetch block info.
		info := make([]pim.Task, len(emptied))
		for i, addr := range emptied {
			addr := addr
			info[i] = pim.Task{
				Module:    addr.Module,
				SendWords: 1,
				Run: func(m *pim.Module) pim.Resp {
					bo := m.Get(addr.ID).(*blockObj)
					return pim.Resp{RecvWords: 4, Value: [3]any{bo.parent, bo.region, bo.rootHash}}
				},
			}
		}
		type victim struct {
			addr, parent, region pim.Addr
			hash                 uint64
		}
		var victims []victim
		for i, r := range t.sys.Round(info) {
			v := r.Value.([3]any)
			victims = append(victims, victim{
				addr: emptied[i], parent: v[0].(pim.Addr), region: v[1].(pim.Addr), hash: v[2].(uint64),
			})
		}
		// Round 2: remove the meta-nodes. Root removals move the master
		// entry to the promoted child and may spawn per-child regions.
		byRegion := map[pim.Addr][]int{}
		var regionOrder []pim.Addr // first-seen order for deterministic emission
		for i, v := range victims {
			if _, seen := byRegion[v.region]; !seen {
				regionOrder = append(regionOrder, v.region)
			}
			byRegion[v.region] = append(byRegion[v.region], i)
		}
		type regionOutcome struct {
			droppedRoots []uint64 // root hashes whose master entries go
			newRoot      *hvm.MetaNode
			spawned      []*hvm.Region
			empty        bool
			bound        int // the region's depth bound after the removals
		}
		rTasks := make([]pim.Task, 0, len(byRegion))
		rAddrs := make([]pim.Addr, 0, len(byRegion))
		for _, ra := range regionOrder {
			ra, idxs := ra, byRegion[ra]
			rTasks = append(rTasks, pim.Task{
				Module:    ra.Module,
				SendWords: len(idxs) + 1,
				Run: func(m *pim.Module) pim.Resp {
					ro := m.Get(ra.ID).(*regionObj)
					var out regionOutcome
					for _, vi := range idxs {
						if ro.r.Root == nil {
							break // region emptied by an earlier victim
						}
						n := ro.r.Lookup(victims[vi].hash)
						if n == nil {
							continue
						}
						wasRoot := n == ro.r.Root
						newRoot, spawned := ro.r.RemoveAny(n)
						out.spawned = append(out.spawned, spawned...)
						if wasRoot {
							out.droppedRoots = append(out.droppedRoots, n.Hash)
							out.newRoot = newRoot
							out.empty = newRoot == nil
						}
					}
					out.bound = ro.r.MaxLen()
					m.Resize(ra.ID)
					return pim.Resp{RecvWords: len(out.droppedRoots) + len(out.spawned) + 5, Value: out}
				},
			})
			rAddrs = append(rAddrs, ra)
		}
		var masterDrop []uint64
		masterAdd := map[uint64]masterEntry{}
		var freeRegions []pim.Addr
		var spawned []regionPart
		for ti, r := range t.sys.Round(rTasks) {
			out := r.Value.(regionOutcome)
			for _, h := range out.droppedRoots {
				// Only drop entries that actually belong to this region (an
				// intermediate promoted root was never registered).
				if e, ok := t.master.Get(h); ok && e.Region == rAddrs[ti] {
					masterDrop = append(masterDrop, h)
				}
			}
			if out.newRoot != nil {
				nr := out.newRoot
				masterAdd[nr.Hash] = masterEntry{Region: rAddrs[ti], Len: nr.Len, SLast: nr.SLast, Block: nr.Block}
			}
			if out.empty {
				freeRegions = append(freeRegions, rAddrs[ti])
				delete(t.regionBound, rAddrs[ti])
			} else {
				t.regionBound[rAddrs[ti]] = out.bound
			}
			for _, reg := range out.spawned {
				spawned = append(spawned, regionPart{reg: reg})
			}
		}
		// Place spawned regions and register their roots.
		if len(spawned) > 0 {
			addrs := t.placeRegions(spawned)
			for i, a := range addrs {
				root := spawned[i].reg.Root
				masterAdd[root.Hash] = masterEntry{Region: a, Len: root.Len, SLast: root.SLast, Block: root.Block}
			}
			t.pointBlocksAtRegions(spawned, addrs)
		}
		if len(masterDrop) > 0 || len(masterAdd) > 0 {
			t.masterRemoveAndAdd(masterDrop, masterAdd)
		}
		t.freeAt(freeRegions)
		// Round 3: free the blocks, detach parent mirrors; collect parents
		// that became empty.
		freed := make([]pim.Addr, len(victims))
		type parentFix struct {
			parent, child pim.Addr
		}
		var fixes []parentFix
		for i, v := range victims {
			if t.recoverable {
				delete(t.blockDir, v.addr)
			}
			freed[i] = v.addr
			if !v.parent.IsNil() {
				fixes = append(fixes, parentFix{parent: v.parent, child: v.addr})
			}
		}
		var nextEmpty []pim.Addr
		fixTasks := make([]pim.Task, len(fixes))
		for i, f := range fixes {
			f := f
			fixTasks[i] = pim.Task{
				Module:    f.parent.Module,
				SendWords: 2,
				Run: func(m *pim.Module) pim.Resp {
					bo := m.Get(f.parent.ID).(*blockObj)
					for ci, c := range bo.children {
						if c == f.child {
							bo.children[ci] = pim.NilAddr
							var mirror *trie.Node
							bo.tr.WalkPreorder(func(n *trie.Node) bool {
								if n.Mirror && int(n.Value) == ci {
									mirror = n
									return false
								}
								return true
							})
							if mirror != nil {
								bo.tr.RemoveLeaf(mirror)
							}
							break
						}
					}
					m.Resize(f.parent.ID)
					live := 0
					for _, c := range bo.children {
						if !c.IsNil() {
							live++
						}
					}
					empty := bo.tr.KeyCount() == 0 && live == 0
					return pim.Resp{RecvWords: 1, Value: empty}
				},
			}
		}
		t.freeAt(freed)
		for i, r := range t.sys.Round(fixTasks) {
			if r.Value.(bool) && fixes[i].parent != t.rootBlock {
				nextEmpty = append(nextEmpty, fixes[i].parent)
			}
		}
		emptied = dedupeAddrs(nextEmpty)
	}
}

func dedupeAddrs(as []pim.Addr) []pim.Addr {
	seen := map[pim.Addr]bool{}
	out := as[:0]
	for _, a := range as {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
