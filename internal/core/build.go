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
	t.clearObjects()

	// One round: allocate every block on a uniformly random module. The
	// placement draws stay serial (RNG sequence); hashing each block's
	// root string — the bulk of the host work here — fans out.
	tasks := make([]pim.Task, len(specs))
	metas := make([]*blockMeta, len(specs))
	mods := make([]int, len(specs))
	for i := range mods {
		mods[i] = t.sys.RandModule()
	}
	parallel.For(len(specs), func(i int) {
		sp := specs[i]
		val := t.h.Hash(sp.RootString)
		metas[i] = &blockMeta{
			parent: pim.NilAddr,
			val:    val,
			len:    sp.RootString.Len(),
			sLast:  slastOf(sp.RootString),
		}
		bo := &blockObj{
			tr:      sp.Trie,
			rootLen: sp.RootString.Len(),
			rootVal: val,
			sLast:   metas[i].sLast,
			parent:  pim.NilAddr,
		}
		bo.rootHash = t.h.Out(val)
		tasks[i] = pim.Task{
			Module:    mods[i],
			SendWords: sp.SizeWords(),
			Run: func(m *pim.Module) pim.Resp {
				return pim.Resp{RecvWords: 1, Value: m.Alloc(bo)}
			},
		}
	})
	resps := t.sys.Round(tasks)
	for i, r := range resps {
		metas[i].addr = r.Value.(pim.Addr)
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

// clearObjects frees every block and region object (full reload path).
func (t *PIMTrie) clearObjects() {
	clear(t.regionBound)
	tasks := make([]pim.Task, 0, t.sys.P())
	for i := 0; i < t.sys.P(); i++ {
		tasks = append(tasks, pim.Task{Module: i, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			var ids []uint64
			m.EachID(func(id uint64, obj any) {
				switch obj.(type) {
				case *blockObj, *regionObj:
					ids = append(ids, id)
				}
			})
			for _, id := range ids {
				m.Free(id)
			}
			return pim.Resp{}
		}})
	}
	t.sys.Round(tasks)
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
	// Split into regions of bounded size.
	regions := []*hvm.Region{giant}
	type parentage struct {
		cut *hvm.MetaNode
		reg *hvm.Region
	}
	var parents []parentage
	for i := 0; i < len(regions); i++ {
		for regions[i].Len() > t.cfg.MetaBlockMax {
			cut, parts := regions[i].Split()
			for _, p := range parts {
				parents = append(parents, parentage{cut: cut, reg: p})
				regions = append(regions, p)
			}
		}
	}
	// Per-region uniqueness check (the paper's global no-collision
	// requirement scoped to each lookup table).
	for _, reg := range regions {
		if err := reg.Reindex(); err != nil {
			return err
		}
	}
	// One round: allocate regions on random modules (draws serial,
	// SizeWords — a full region walk — in parallel).
	tasks := make([]pim.Task, len(regions))
	regMods := make([]int, len(regions))
	for i := range regMods {
		regMods[i] = t.sys.RandModule()
	}
	parallel.For(len(regions), func(i int) {
		reg := regions[i]
		tasks[i] = pim.Task{
			Module:    regMods[i],
			SendWords: reg.SizeWords(),
			Run: func(m *pim.Module) pim.Resp {
				return pim.Resp{RecvWords: 1, Value: m.Alloc(&regionObj{r: reg})}
			},
		}
	})
	resps := t.sys.Round(tasks)
	regAddr := make(map[*hvm.Region]pim.Addr, len(regions))
	for i, r := range resps {
		regAddr[regions[i]] = r.Value.(pim.Addr)
		t.regionBound[regAddr[regions[i]]] = regions[i].MaxLen()
	}
	for _, pg := range parents {
		pg.cut.ChildRegions = append(pg.cut.ChildRegions, regAddr[pg.reg])
	}
	// Master table: every region root.
	master := newMetaTable(len(regions))
	for _, reg := range regions {
		r := reg.Root
		if old, dup := master.Get(r.Hash); dup && old.Block != r.Block {
			return hvm.ErrHashCollision{Hash: r.Hash}
		}
		master.Put(r.Hash, masterEntry{Region: regAddr[reg], Len: r.Len, SLast: r.SLast, Block: r.Block})
	}
	t.master = master
	t.broadcastMaster()
	// One round: point every block at its region.
	point := make([]pim.Task, 0, len(metas))
	for _, reg := range regions {
		ra := regAddr[reg]
		reg.Walk(func(n *hvm.MetaNode) {
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
	t.sys.Round(point)
	return nil
}

func metasRootAddr(metas []*blockMeta) pim.Addr {
	for _, bm := range metas {
		if bm.parent.IsNil() {
			return bm.addr
		}
	}
	panic("core: no root block meta")
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
	t.freeRegions()
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

// freeRegions frees every regionObj across the system.
func (t *PIMTrie) freeRegions() {
	clear(t.regionBound)
	tasks := make([]pim.Task, 0, t.sys.P())
	for i := 0; i < t.sys.P(); i++ {
		tasks = append(tasks, pim.Task{Module: i, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			var ids []uint64
			m.EachID(func(id uint64, obj any) {
				if _, ok := obj.(*regionObj); ok {
					ids = append(ids, id)
				}
			})
			for _, id := range ids {
				m.Free(id)
			}
			return pim.Resp{}
		}})
	}
	t.sys.Round(tasks)
}
