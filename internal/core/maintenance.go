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

// splitBlocks splits every oversized block in place, in two rounds. In
// the first, each block's module partitions its block into pieces of at
// most K_B words, keeps the piece at the block's root, and replies with
// the others, the spilled pieces. In the second, the spilled pieces are
// stored on random modules at addresses the host reserved for them
// (placeTasks); the kept pieces learn those addresses; the old children
// that moved under a spilled piece learn their new parent; and each
// region inserts the spilled pieces' metas and re-parents the moved
// children's. Every task of the second round names only addresses the
// host already holds, so none waits on another.
func (t *PIMTrie) splitBlocks(oversized []pim.Addr) {
	defer t.sys.Phase("block-split")()
	kb := t.cfg.BlockWords
	tasks := make([]pim.Task, len(oversized))
	for i, addr := range oversized {
		tasks[i] = pim.Task{
			Module:    addr.Module,
			SendWords: 1,
			Run: func(m *pim.Module) pim.Resp {
				bo := m.Get(addr.ID).(*blockObj)
				m.Work(bo.tr.SizeWords())
				sp := bo.splitInPlace(kb)
				m.Resize(addr.ID)
				if sp == nil {
					return pim.Resp{RecvWords: 1}
				}
				return pim.Resp{RecvWords: sp.words(), Value: sp}
			},
		}
	}
	resps := t.sys.Round(tasks)

	// Host: the spilled pieces as blocks, in preorder per split block.
	// first[oi] is where block oi's pieces start in objs.
	spills := make([]*spill, len(resps))
	first := make([]int, len(resps))
	var objs []pim.Sized
	for oi, r := range resps {
		first[oi] = len(objs)
		sp, _ := r.Value.(*spill)
		if sp == nil {
			continue
		}
		spills[oi] = sp
		t.sys.CPUWork(r.RecvWords)
		for _, pc := range sp.pieces {
			val := t.h.Extend(sp.rootVal, pc.rel)
			objs = append(objs, &blockObj{
				tr:       pc.tr,
				rootLen:  sp.rootLen + pc.rel.Len(),
				rootVal:  val,
				rootHash: t.h.Out(val),
				sLast:    slastExtend(sp.sLast, pc.rel),
				children: pc.children,
				region:   sp.region,
			})
		}
	}
	if len(objs) == 0 {
		return
	}
	newAddr, round := t.placeTasks(objs, nil)

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
	for oi, sp := range spills {
		if sp == nil {
			continue
		}
		old := oversized[oi]
		if _, seen := insByRegion[sp.region]; !seen {
			regionOrder = append(regionOrder, sp.region)
		}
		// The kept piece's slots that name spilled pieces.
		if len(sp.awaiting) > 0 {
			fill := make([]pim.Addr, len(sp.awaiting))
			for k, pi := range sp.awaiting {
				fill[k] = newAddr[first[oi]+pi]
			}
			round = append(round, pim.Task{
				Module:    old.Module,
				SendWords: len(fill) + 1,
				Run: func(m *pim.Module) pim.Resp {
					m.Get(old.ID).(*blockObj).fillAwaiting(fill)
					return pim.Resp{}
				},
			})
		}
		for pi, pc := range sp.pieces {
			i := first[oi] + pi
			nb, na := objs[i].(*blockObj), newAddr[i]
			parentHash := sp.rootHash
			nb.parent = old
			if pc.parent >= 0 {
				nb.parent = newAddr[first[oi]+pc.parent]
				parentHash = objs[first[oi]+pc.parent].(*blockObj).rootHash
			}
			if t.recoverable {
				t.blockDir[na] = t.blockDir[old].Concat(pc.rel)
			}
			hashPre, srem := t.pivotAug(nb.rootVal, nb.sLast)
			insByRegion[sp.region] = append(insByRegion[sp.region], metaIns{
				parentHash: parentHash,
				node: &hvm.MetaNode{
					Hash: nb.rootHash, Len: nb.rootLen, SLast: nb.sLast, Block: na,
					HashPre: hashPre, SRem: srem,
				},
			})
			// Slots in mirror preorder: a nil one names a spilled piece, in
			// awaiting order; any other names an old child that moved under
			// this piece, which needs its parent pointer and its meta's
			// parent changed — or, for a child rooting a region of its
			// own, the region reference the split block held moved.
			k := 0
			nb.tr.WalkPreorder(func(n *trie.Node) bool {
				if !n.Mirror {
					return true
				}
				c := nb.children[n.Value]
				if c.IsNil() {
					nb.children[n.Value] = newAddr[first[oi]+pc.awaiting[k]]
					k++
				} else {
					round = append(round, pim.Task{
						Module:    c.Module,
						SendWords: 2,
						Run: func(m *pim.Module) pim.Resp {
							m.Get(c.ID).(*blockObj).parent = na
							return pim.Resp{}
						},
					})
					h := t.h.Out(t.h.Extend(nb.rootVal, trie.NodeString(n)))
					childRegion := sp.region
					if e, ok := t.master.Get(h); ok && e.Block == c {
						childRegion = e.Region
					}
					repByRegion[sp.region] = append(repByRegion[sp.region], reparent{
						childHash: h, childRegion: childRegion, fromHash: sp.rootHash, ownerHash: nb.rootHash,
					})
				}
				return false
			})
		}
	}
	type regReply struct {
		collided bool
		size     int
		bound    int // the region's depth bound after the update
	}
	regionAt := len(round)
	for _, ra := range regionOrder {
		ins := insByRegion[ra]
		reps := repByRegion[ra]
		round = append(round, pim.Task{
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
	}
	var overRegions []pim.Addr
	collided := false
	for i, r := range t.sys.Round(round)[regionAt:] {
		rep := r.Value.(regReply)
		if rep.collided {
			collided = true
		}
		t.regionBound[regionOrder[i]] = rep.bound
		if rep.size > t.cfg.MetaBlockMax {
			overRegions = append(overRegions, regionOrder[i])
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

// spill is a block module's reply to an in-place split: the split
// block's identity, which the host derives the pieces' from, and the
// pieces it spilled, in preorder.
type spill struct {
	rootVal  hashing.Value
	rootLen  int
	rootHash uint64
	sLast    bitstr.String
	region   pim.Addr
	pieces   []spilledPiece
	awaiting []int // per nil slot of the kept piece, in order: the piece it names
}

// spilledPiece is one piece a split moves off its block's module.
type spilledPiece struct {
	rel      bitstr.String // root string relative to the split block's root
	tr       *trie.Trie
	children []pim.Addr // mirror.Value indexes it; nil slots await a piece's address
	awaiting []int      // per nil slot, in order: the piece it names
	parent   int        // the piece whose mirror names this one; -1 for the kept piece
}

// words is the reply's wire size: the block's identity, then per piece
// its trie, children, relative root string and parent, then the kept
// piece's awaiting list.
func (s *spill) words() int {
	w := 6 + len(s.awaiting)
	for _, pc := range s.pieces {
		w += pc.tr.SizeWords() + len(pc.children) + pc.rel.SizeWords() + 1
	}
	return w
}

// splitInPlace partitions the block into pieces of at most maxWords
// words (§4.2), keeps the piece at its root, and returns the others; it
// returns nil when the block needs no cut. Child slots are renumbered in
// each piece's mirror preorder; a slot whose mirror roots a spilled
// piece stays nil until the host has that piece's address.
func (bo *blockObj) splitInPlace(maxWords int) *spill {
	cuts := dropMirrorCuts(bo.tr.Partition(maxWords))
	if len(cuts) == 0 {
		return nil
	}
	specs, oldChildren := bo.tr.ExtractBlocks(cuts), bo.children
	sp := &spill{
		rootVal: bo.rootVal, rootLen: bo.rootLen, rootHash: bo.rootHash,
		sLast: bo.sLast, region: bo.region,
		pieces: make([]spilledPiece, len(specs)-1),
	}
	for si, spec := range specs {
		// Spec si's cut mirrors name specs after it (preorder), so a
		// piece's parent is set before the piece itself is filled in.
		cut := map[*trie.Node]int{}
		for _, ref := range spec.Mirrors {
			cut[ref.Node] = ref.ChildIndex - 1
		}
		var children []pim.Addr
		var awaiting []int
		spec.Trie.WalkPreorder(func(n *trie.Node) bool {
			if !n.Mirror {
				return true
			}
			slot := pim.NilAddr
			if pi, ok := cut[n]; ok {
				sp.pieces[pi].parent = si - 1
				awaiting = append(awaiting, pi)
			} else {
				slot = oldChildren[n.Value]
			}
			n.Value = uint64(len(children))
			children = append(children, slot)
			return false
		})
		if si == 0 {
			bo.tr, bo.children, sp.awaiting = spec.Trie, children, awaiting
			continue
		}
		pc := &sp.pieces[si-1]
		pc.rel, pc.tr, pc.children, pc.awaiting = spec.RootString, spec.Trie, children, awaiting
	}
	return sp
}

// fillAwaiting gives the block's nil child slots, in order, the
// addresses of the pieces they name.
func (bo *blockObj) fillAwaiting(addrs []pim.Addr) {
	k := 0
	for ci, c := range bo.children {
		if c.IsNil() {
			bo.children[ci] = addrs[k]
			k++
		}
	}
}

// splitRegions splits each oversized region with the optimal cut
// (Lemma 4.5) until every piece fits, in two rounds. The first pulls the
// regions. The second stores the split-off pieces at addresses the host
// reserved for them, writes the shrunk sources back, adds the pieces'
// roots to every master replica and points the moved blocks at their
// new regions: all of it names only addresses the host already holds.
func (t *PIMTrie) splitRegions(over []pim.Addr) {
	defer t.sys.Phase("meta-split")()
	tasks := make([]pim.Task, len(over))
	for i, ra := range over {
		tasks[i] = pim.Task{
			Module:    ra.Module,
			SendWords: 1,
			Run: func(m *pim.Module) pim.Resp {
				ro := m.Get(ra.ID).(*regionObj)
				return pim.Resp{RecvWords: ro.SizeWords(), Value: ro}
			},
		}
	}
	var parts []regionPart
	for i, r := range t.sys.Round(tasks) {
		ro := r.Value.(*regionObj)
		parts = append(parts, t.splitToFit(ro.r)...)
		t.sys.CPUWork(ro.SizeWords())
		t.regionBound[over[i]] = ro.r.MaxLen()
	}
	if len(parts) == 0 {
		return
	}
	partAddr, round := t.placeRegions(parts)
	add := map[uint64]masterEntry{}
	for i, p := range parts {
		r := p.reg.Root
		add[r.Hash] = masterEntry{Region: partAddr[i], Len: r.Len, SLast: r.SLast, Block: r.Block}
	}
	master, err := t.masterDelta(add)
	if err != nil {
		t.redos++
		t.rehash()
		return
	}
	for _, ra := range over {
		round = append(round, pim.Task{Module: ra.Module, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			m.Resize(ra.ID)
			return pim.Resp{}
		}})
	}
	round = append(round, master...)
	t.sys.Round(append(round, pointBlocksAtRegions(parts, partAddr)...))
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
			addrs, place := t.placeRegions(spawned)
			t.sys.Round(place)
			for i, a := range addrs {
				root := spawned[i].reg.Root
				masterAdd[root.Hash] = masterEntry{Region: a, Len: root.Len, SLast: root.SLast, Block: root.Block}
			}
			t.sys.Round(pointBlocksAtRegions(spawned, addrs))
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
