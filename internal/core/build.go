package core

// Bulk loading and global re-hash. Build constructs the whole data trie
// on the host, blocks it (§4.2), distributes the blocks uniformly at
// random, and assembles the hash value manager (regions + master table).
// rehash re-derives every hash-dependent structure under a fresh hash
// function (§4.4.3's global re-hash), reusing the same assembly path.

import (
	"fmt"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/hvm"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// blockMeta is the host-side record used while assembling the HVM.
type blockMeta struct {
	addr     pim.Addr
	parent   pim.Addr
	val      hashing.Value
	len      int
	sLast    bitstr.String
	children []pim.Addr
}

// Build bulk-loads the index with the given key-value pairs, replacing
// all current contents. It panics if called on a non-empty trie (bulk
// load is a constructor-time operation; use Insert afterwards).
func (t *PIMTrie) Build(keys []bitstr.String, values []uint64) {
	if t.nKeys != 0 {
		panic("core: Build on a non-empty PIM-trie")
	}
	if len(keys) != len(values) {
		panic(fmt.Sprintf("core: Build keys/values length mismatch: %d keys, %d values", len(keys), len(values)))
	}
	defer t.beginBatch("Build")()
	t.shadowWrites(&epoch{keys: [numSections][]bitstr.String{secInsert: keys}, values: values})
	// A targeted repair restores the state before the load, which then
	// runs again; a full rebuild from the shadow is the loaded state.
	t.withRecovery(func() { t.buildOnce(keys, values) }, func(full bool) bool { return full })
	t.syncKeyCount()
}

func (t *PIMTrie) buildOnce(keys []bitstr.String, values []uint64) {
	defer t.sys.Phase("build")()
	// Host-side construction of the full compressed trie.
	full := trie.New()
	for i, k := range keys {
		full.Insert(k, values[i])
		t.sys.CPUWork(k.Words() + 1)
	}
	t.nKeys = full.KeyCount()
	t.loadFromTrie(full)
}

// loadFromTrie blocks, distributes and indexes the given host trie.
// The whole load is a dirty window: a module lost partway leaves mixed
// old/new state that only a full rebuild can fix.
func (t *PIMTrie) loadFromTrie(full *trie.Trie) {
	t.dirty++
	cuts := full.Partition(t.cfg.BlockWords)
	cuts = dropMirrorCuts(cuts)
	specs := full.ExtractBlocks(cuts)
	t.sys.CPUWork(full.SizeWords())

	for attempt := 0; ; attempt++ {
		if err := t.installBlocks(specs); err == nil {
			t.dirty--
			return
		}
		if attempt >= t.cfg.MaxRedo {
			panic("core: could not find a collision-free hash function; widen HashWidth")
		}
		t.rehashes++
		t.hashSalt++
		t.h = hashing.New(t.hashSalt, t.cfg.HashWidth)
	}
}

// dropMirrorCuts removes mirror nodes from a cut set (a mirror is
// already a block boundary; re-cutting it would create empty blocks).
func dropMirrorCuts(cuts []*trie.Node) []*trie.Node {
	out := cuts[:0]
	for _, c := range cuts {
		if !c.Mirror {
			out = append(out, c)
		}
	}
	return out
}

// installBlocks distributes the block specs and assembles the HVM. On a
// hash collision it frees everything it allocated and reports the error
// so the caller can re-hash and retry.
func (t *PIMTrie) installBlocks(specs []*trie.BlockSpec) error {
	defer t.sys.Phase("install-blocks")()
	// Clear all previous module state except master replicas.
	t.freeObjects(true)

	// One round: allocate every block on a uniformly random module,
	// shipping its spec (trie and root string). Hashing each block's root
	// string — the bulk of the host work here — fans out.
	objs := make([]pim.Sized, len(specs))
	metas := make([]*blockMeta, len(specs))
	parallel.For(len(specs), func(i int) {
		sp := specs[i]
		val := t.h.Hash(sp.RootString)
		metas[i] = &blockMeta{
			parent: pim.NilAddr,
			val:    val,
			len:    sp.RootString.Len(),
			sLast:  slastOf(sp.RootString),
		}
		objs[i] = &blockObj{
			tr:       sp.Trie,
			rootLen:  sp.RootString.Len(),
			rootVal:  val,
			rootHash: t.h.Out(val),
			sLast:    metas[i].sLast,
			parent:   pim.NilAddr,
		}
	})
	for i, a := range t.place(objs, func(i int) int { return specs[i].SizeWords() }) {
		metas[i].addr = a
	}
	if t.recoverable {
		// The block directory is rebuilt from scratch on a full load.
		clear(t.blockDir)
		for i, sp := range specs {
			t.blockDir[metas[i].addr] = sp.RootString
		}
	}
	// Wire mirrors: one round updating children lists and parent links.
	wire := make([]pim.Task, 0, len(specs))
	for i, sp := range specs {
		i, sp := i, sp
		children := make([]pim.Addr, len(sp.Mirrors))
		for mi, ref := range sp.Mirrors {
			children[mi] = metas[ref.ChildIndex].addr
			metas[ref.ChildIndex].parent = metas[i].addr
			ref.Node.Value = uint64(mi)
		}
		metas[i].children = children
		addr := metas[i].addr
		wire = append(wire, pim.Task{
			Module:    addr.Module,
			SendWords: len(children) + 1,
			Run: func(m *pim.Module) pim.Resp {
				bo := m.Get(addr.ID).(*blockObj)
				bo.children = children
				m.Resize(addr.ID)
				return pim.Resp{}
			},
		})
	}
	// Parent pointers.
	for i := range specs {
		meta := metas[i]
		addr, parent := meta.addr, meta.parent
		wire = append(wire, pim.Task{
			Module:    addr.Module,
			SendWords: 1,
			Run: func(m *pim.Module) pim.Resp {
				m.Get(addr.ID).(*blockObj).parent = parent
				return pim.Resp{}
			},
		})
	}
	t.sys.Round(wire)
	t.rootBlock = metas[0].addr
	return t.assembleHVM(metas)
}

// pivotAug derives the §4.4.2 pivot augmentation of a block root from
// its hash value, length, and S_last window: the full-width hash key of
// the longest w-multiple prefix and the remainder after it. The remainder
// is always inside S_last (|rem| = len mod w < w), so no full string is
// needed — Shrink rewinds the root value across it.
func (t *PIMTrie) pivotAug(val hashing.Value, sLast bitstr.String) (hashPre uint64, srem bitstr.String) {
	rem := val.Len % bitstr.WordBits
	if rem == 0 {
		return t.h.OutFull(val), bitstr.Empty
	}
	srem = sLast.Suffix(sLast.Len() - rem)
	return t.h.OutFull(t.h.Shrink(val, srem)), srem
}

// slastOf returns the last min(len, w) bits of s.
func slastOf(s bitstr.String) bitstr.String {
	if s.Len() <= bitstr.WordBits {
		return s
	}
	return s.Suffix(s.Len() - bitstr.WordBits)
}

// slastExtend derives the S_last of parentSLast·rel.
func slastExtend(parentSLast, rel bitstr.String) bitstr.String {
	return slastOf(parentSLast.Concat(rel))
}

// assembleHVM builds the meta-tree from the block metadata, groups it
// into regions of at most MetaBlockMax nodes, distributes the regions,
// rebuilds the master table and points every block at its region.
func (t *PIMTrie) assembleHVM(metas []*blockMeta) error {
	defer t.sys.Phase("assemble-hvm")()
	// Build the meta-tree host-side; detect hash collisions eagerly.
	nodes := make([]*hvm.MetaNode, len(metas))
	parallel.For(len(metas), func(i int) {
		bm := metas[i]
		hashPre, srem := t.pivotAug(bm.val, bm.sLast)
		nodes[i] = &hvm.MetaNode{
			Hash: t.h.Out(bm.val), Len: bm.len, SLast: bm.sLast, Block: bm.addr,
			HashPre: hashPre, SRem: srem,
		}
	})
	byAddr := make(map[pim.Addr]int, len(metas))
	for i, bm := range metas {
		byAddr[bm.addr] = i
	}
	var root *hvm.MetaNode
	for i, bm := range metas {
		if bm.parent.IsNil() {
			root = nodes[i]
		}
	}
	if root == nil {
		return fmt.Errorf("core: no root block")
	}
	// Link the meta-tree directly (collision checking happens per final
	// region below — uniqueness is only required per lookup table).
	for i, bm := range metas {
		for _, c := range bm.children {
			ci := byAddr[c]
			nodes[ci].Parent = nodes[i]
			nodes[i].Children = append(nodes[i].Children, nodes[ci])
		}
	}
	giant := hvm.NewRegionTree(root)
	regions := append([]regionPart{{reg: giant}}, t.splitToFit(giant)...)
	// Per-region uniqueness check (the paper's global no-collision
	// requirement scoped to each lookup table).
	for _, p := range regions {
		if err := p.reg.Reindex(); err != nil {
			return err
		}
	}
	regAddrs, place := t.placeRegions(regions)
	t.sys.Round(place)
	// Master table: every region root.
	master := newMetaTable(len(regions))
	for i, p := range regions {
		r := p.reg.Root
		if old, dup := master.Get(r.Hash); dup && old.Block != r.Block {
			return hvm.ErrHashCollision{Hash: r.Hash}
		}
		master.Put(r.Hash, masterEntry{Region: regAddrs[i], Len: r.Len, SLast: r.SLast, Block: r.Block})
	}
	t.master = master
	t.broadcastMaster()
	t.sys.Round(pointBlocksAtRegions(regions, regAddrs))
	return nil
}

// rehash switches to a fresh hash function and rebuilds every
// hash-dependent structure: block root values (top-down over the block
// tree), regions and the master table. Costs are charged as the rounds
// execute; the operation is rare (§4.4.3).
func (t *PIMTrie) rehash() {
	defer t.sys.Phase("rehash")()
	t.rehashes++
	// Dirty window: a module lost mid-rehash leaves survivors with root
	// values under mixed salts; only a full rebuild restores coherence.
	t.dirty++
	for attempt := 0; ; attempt++ {
		t.hashSalt++
		t.h = hashing.New(t.hashSalt, t.cfg.HashWidth)
		if err := t.rebuildHashes(); err == nil {
			t.dirty--
			return
		}
		if attempt >= t.cfg.MaxRedo {
			panic("core: could not find a collision-free hash function; widen HashWidth")
		}
	}
}

// rebuildHashes re-derives root values level by level over the block
// tree and reassembles the HVM.
func (t *PIMTrie) rebuildHashes() error {
	type item struct {
		addr pim.Addr
		val  hashing.Value
	}
	level := []childHash{{addr: t.rootBlock, val: hashing.EmptyValue()}}
	var metas []*blockMeta
	h := t.h
	for len(level) > 0 {
		tasks := make([]pim.Task, len(level))
		for i, it := range level {
			it := it
			tasks[i] = pim.Task{
				Module:    it.addr.Module,
				SendWords: 2,
				Run: func(m *pim.Module) pim.Resp {
					bo := m.Get(it.addr.ID).(*blockObj)
					bo.rootVal = it.val
					bo.rootHash = h.Out(it.val)
					var kids []childHash
					work := 0
					bo.tr.WalkPreorder(func(n *trie.Node) bool {
						if n.Mirror {
							rel := trie.NodeString(n)
							work += rel.Words()
							kids = append(kids, childHash{
								addr: bo.children[n.Value],
								val:  h.Extend(it.val, rel),
							})
							return false
						}
						return true
					})
					m.Work(work + bo.tr.NodeCount())
					meta := &blockMeta{
						addr: it.addr, parent: bo.parent, val: it.val,
						len: bo.rootLen, sLast: bo.sLast, children: bo.children,
					}
					return pim.Resp{RecvWords: len(kids)*2 + 4, Value: rehashReply{kids: kids, meta: meta}}
				},
			}
		}
		var next []childHash
		for _, r := range t.sys.Round(tasks) {
			rep := r.Value.(rehashReply)
			metas = append(metas, rep.meta)
			next = append(next, rep.kids...)
		}
		level = next
	}
	// Free old regions, then reassemble.
	t.freeObjects(false)
	return t.assembleHVM(metas)
}

// childHash pairs a block address with the hash value of its root
// string; the unit of the top-down re-hash walk.
type childHash struct {
	addr pim.Addr
	val  hashing.Value
}

type rehashReply struct {
	kids []childHash
	meta *blockMeta
}

// place stores objs[i] on a uniformly random module, all in one round,
// and returns the addresses (see placeTasks). Placing nothing runs no
// round.
func (t *PIMTrie) place(objs []pim.Sized, send func(i int) int) []pim.Addr {
	if len(objs) == 0 {
		return nil
	}
	addrs, tasks := t.placeTasks(objs, send)
	t.sys.Round(tasks)
	return addrs
}

// placeTasks draws a uniformly random module for each object, reserves
// its address there, and returns the addresses with the tasks that store
// the objects, for a round of the caller's. Task i ships send(i) words —
// or, with a nil send, the object's current size — and the address. The
// draws are serial in index order, so the placement RNG sequence is the
// caller's; the sizes, a walk of each object, fan out.
func (t *PIMTrie) placeTasks(objs []pim.Sized, send func(i int) int) ([]pim.Addr, []pim.Task) {
	addrs := make([]pim.Addr, len(objs))
	for i := range addrs {
		addrs[i] = t.sys.Reserve(t.sys.RandModule())
	}
	tasks := make([]pim.Task, len(objs))
	parallel.For(len(objs), func(i int) {
		obj, a, words := objs[i], addrs[i], 0
		if send != nil {
			words = send(i)
		} else {
			words = obj.SizeWords()
		}
		tasks[i] = pim.Task{
			Module:    a.Module,
			SendWords: words + 1,
			Run: func(m *pim.Module) pim.Resp {
				m.Store(a.ID, obj)
				return pim.Resp{}
			},
		}
	})
	return addrs, tasks
}

// regionPart is a region to place, with the meta-node whose
// ChildRegions links it (nil when no node does: a region root).
type regionPart struct {
	reg *hvm.Region
	cut *hvm.MetaNode
}

// splitToFit splits reg with the optimal cut (Lemma 4.5) until every
// piece holds at most MetaBlockMax meta-nodes. reg shrinks in place;
// the split-off pieces are returned in the order they were cut.
func (t *PIMTrie) splitToFit(reg *hvm.Region) []regionPart {
	var parts []regionPart
	queue := []*hvm.Region{reg}
	for qi := 0; qi < len(queue); qi++ {
		for queue[qi].Len() > t.cfg.MetaBlockMax {
			cut, pieces := queue[qi].Split()
			for _, p := range pieces {
				parts = append(parts, regionPart{reg: p, cut: cut})
				queue = append(queue, p)
			}
		}
	}
	return parts
}

// placeRegions reserves a random module's address for each region (see
// placeTasks), records the region's depth bound and links it from its
// cut node; it returns the addresses with the tasks that store the
// regions, for a round of the caller's.
func (t *PIMTrie) placeRegions(parts []regionPart) ([]pim.Addr, []pim.Task) {
	objs := make([]pim.Sized, len(parts))
	for i, p := range parts {
		objs[i] = &regionObj{r: p.reg}
	}
	addrs, tasks := t.placeTasks(objs, nil)
	for i, a := range addrs {
		t.regionBound[a] = parts[i].reg.MaxLen()
		if c := parts[i].cut; c != nil {
			c.ChildRegions = append(c.ChildRegions, a)
		}
	}
	return addrs, tasks
}

// pointBlocksAtRegions returns the tasks that set bo.region for every
// block whose meta-node lives in one of the placed regions.
func pointBlocksAtRegions(parts []regionPart, addrs []pim.Addr) []pim.Task {
	var point []pim.Task
	for i, p := range parts {
		ra := addrs[i]
		p.reg.Walk(func(n *hvm.MetaNode) {
			blk := n.Block
			point = append(point, pim.Task{
				Module:    blk.Module,
				SendWords: 2,
				Run: func(m *pim.Module) pim.Resp {
					m.Get(blk.ID).(*blockObj).region = ra
					return pim.Resp{}
				},
			})
		})
	}
	return point
}

// freeObjects frees, in one round over every module, every region
// object and — with blocks — every block object, and forgets the region
// bounds. Master replicas stay.
func (t *PIMTrie) freeObjects(blocks bool) {
	clear(t.regionBound)
	tasks := make([]pim.Task, t.sys.P())
	for i := range tasks {
		tasks[i] = pim.Task{Module: i, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			var ids []uint64
			m.EachID(func(id uint64, obj any) {
				switch obj.(type) {
				case *regionObj:
					ids = append(ids, id)
				case *blockObj:
					if blocks {
						ids = append(ids, id)
					}
				}
			})
			for _, id := range ids {
				m.Free(id)
			}
			return pim.Resp{}
		}}
	}
	t.sys.Round(tasks)
}

// freeAt frees the objects at addrs in one round; freeing nothing runs
// no round.
func (t *PIMTrie) freeAt(addrs []pim.Addr) {
	if len(addrs) == 0 {
		return
	}
	tasks := make([]pim.Task, len(addrs))
	for i, a := range addrs {
		tasks[i] = pim.Task{Module: a.Module, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			m.Free(a.ID)
			return pim.Resp{}
		}}
	}
	t.sys.Round(tasks)
}
