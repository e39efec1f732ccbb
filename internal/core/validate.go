package core

// Validate walks the entire distributed structure (an unaccounted
// diagnostic pass) and checks every invariant the matching protocol
// relies on. Tests call it after mutation batches; it is exported on
// PIMTrie so stress harnesses outside the package can use it too.

import (
	"fmt"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/hvm"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// Validate checks structural soundness:
//
//  1. the block tree is well-formed: parent/child pointers agree, every
//     mirror leaf names exactly one live child block, root strings and
//     hash values compose correctly along mirror paths;
//  2. every block's meta-node exists in the region the block points at,
//     with matching hash/length/S_last;
//  3. the meta-tree is isomorphic to the block tree (parents map to
//     parents, up to region boundaries);
//  4. every region root is an ancestor of all its members and is
//     registered in the master table (and nothing else is);
//  5. every key is stored exactly once, and the total equals KeyCount;
//  6. every depth bound HashMatching stops at is exact: each region's
//     MaxLen is the largest Len in its index (hvm.Region.Validate), and
//     each module's master replica reports the largest Len of its own
//     entries, which is also the host copy's;
//  7. the host holds exactly one region bound per live region, equal to
//     that region's MaxLen: the region round clamps shipped segments to
//     it, so a bound too low would drop hits, and an entry for a dead
//     region is a leak;
//  8. no block holds more than 2·K_B words: an insert splits a block
//     that outgrows that into pieces of at most K_B (§5.2).
//
// It returns the first violation found.
func (t *PIMTrie) Validate() error {
	type blockInfo struct {
		bo   *blockObj
		addr pim.Addr
	}
	blocks := map[pim.Addr]*blockObj{}
	regions := map[pim.Addr]*hvm.Region{}
	for i := 0; i < t.sys.P(); i++ {
		mi := i
		t.sys.Module(mi).EachID(func(id uint64, obj any) {
			switch o := obj.(type) {
			case *blockObj:
				blocks[pim.Addr{Module: mi, ID: id}] = o
			case *regionObj:
				regions[pim.Addr{Module: mi, ID: id}] = o.r
			}
		})
	}
	if _, ok := blocks[t.rootBlock]; !ok {
		return fmt.Errorf("root block %v missing", t.rootBlock)
	}

	// 1. Walk the block tree from the root, checking wiring and hashes.
	keys := 0
	visited := map[pim.Addr]bool{}
	var walk func(addr pim.Addr, rootVal hashing.Value, rootLen int) error
	walk = func(addr pim.Addr, rootVal hashing.Value, rootLen int) error {
		bo, ok := blocks[addr]
		if !ok {
			return fmt.Errorf("dangling block address %v", addr)
		}
		if visited[addr] {
			return fmt.Errorf("block %v reachable twice", addr)
		}
		visited[addr] = true
		if bo.rootVal != rootVal {
			return fmt.Errorf("block %v root hash value mismatch", addr)
		}
		if bo.rootLen != rootLen {
			return fmt.Errorf("block %v root length %d, want %d", addr, bo.rootLen, rootLen)
		}
		if bo.rootHash != t.h.Out(rootVal) {
			return fmt.Errorf("block %v rootHash inconsistent with rootVal", addr)
		}
		if w := bo.tr.SizeWords(); w > 2*t.cfg.BlockWords {
			return fmt.Errorf("block %v holds %d words, more than 2·K_B = %d", addr, w, 2*t.cfg.BlockWords)
		}
		if err := bo.tr.CheckInvariants(); err != nil {
			return fmt.Errorf("block %v: %w", addr, err)
		}
		keys += bo.tr.KeyCount()
		// Mirrors ↔ children.
		seenChild := map[int]bool{}
		var mirrorErr error
		bo.tr.WalkPreorder(func(n *trie.Node) bool {
			if mirrorErr != nil {
				return false
			}
			if !n.Mirror {
				return true
			}
			ci := int(n.Value)
			if ci < 0 || ci >= len(bo.children) || bo.children[ci].IsNil() {
				mirrorErr = fmt.Errorf("block %v: mirror names dead child slot %d", addr, ci)
				return false
			}
			if seenChild[ci] {
				mirrorErr = fmt.Errorf("block %v: child slot %d mirrored twice", addr, ci)
				return false
			}
			seenChild[ci] = true
			rel := trie.NodeString(n)
			child := bo.children[ci]
			cb, ok := blocks[child]
			if !ok {
				mirrorErr = fmt.Errorf("block %v: child %v missing", addr, child)
				return false
			}
			if cb.parent != addr {
				mirrorErr = fmt.Errorf("block %v: child %v parent is %v", addr, child, cb.parent)
				return false
			}
			if err := walk(child, t.h.Extend(rootVal, rel), rootLen+rel.Len()); err != nil {
				mirrorErr = err
			}
			return false
		})
		if mirrorErr != nil {
			return mirrorErr
		}
		// Live children without a mirror are a wiring bug.
		live := 0
		for _, c := range bo.children {
			if !c.IsNil() {
				live++
			}
		}
		if live != len(seenChild) {
			return fmt.Errorf("block %v: %d live children but %d mirrors", addr, live, len(seenChild))
		}
		// 2. The meta-node.
		reg, ok := regions[bo.region]
		if !ok {
			return fmt.Errorf("block %v points at dead region %v", addr, bo.region)
		}
		meta := reg.Lookup(bo.rootHash)
		if meta == nil || meta.Block != addr {
			return fmt.Errorf("block %v has no meta in its region", addr)
		}
		if meta.Len != bo.rootLen || !bitstr.Equal(meta.SLast, bo.sLast) {
			return fmt.Errorf("block %v meta disagrees (len %d vs %d)", addr, meta.Len, bo.rootLen)
		}
		return nil
	}
	if err := walk(t.rootBlock, hashing.EmptyValue(), 0); err != nil {
		return err
	}
	for addr := range blocks {
		if !visited[addr] {
			return fmt.Errorf("orphaned block %v", addr)
		}
	}
	if keys != t.nKeys {
		return fmt.Errorf("stored keys %d != KeyCount %d", keys, t.nKeys)
	}

	// 3+4. Regions: validity, ancestry (root length minimal and a prefix
	// relation via lengths + meta parentage), master registration.
	masterSeen := map[uint64]bool{}
	for addr, reg := range regions {
		if reg.Root == nil {
			return fmt.Errorf("region %v has nil root", addr)
		}
		if err := reg.Validate(); err != nil {
			return fmt.Errorf("region %v: %w", addr, err)
		}
		e, ok := t.master.Get(reg.Root.Hash)
		if !ok {
			return fmt.Errorf("region %v root not in master", addr)
		}
		if e.Region != addr {
			return fmt.Errorf("master entry for region %v points at %v", addr, e.Region)
		}
		masterSeen[reg.Root.Hash] = true
		if b, ok := t.regionBound[addr]; !ok || b != reg.MaxLen() {
			return fmt.Errorf("region %v has depth bound %d, the host holds %d (known %v)", addr, reg.MaxLen(), b, ok)
		}
		var err error
		reg.Walk(func(n *hvm.MetaNode) {
			if err != nil {
				return
			}
			bo, ok := blocks[n.Block]
			if !ok {
				err = fmt.Errorf("region %v meta names dead block %v", addr, n.Block)
				return
			}
			if bo.region != addr {
				err = fmt.Errorf("region %v holds meta of block pointing at %v", addr, bo.region)
				return
			}
			// Meta-tree ≅ block tree: a child's parent block must be the
			// block of its meta parent.
			if n.Parent != nil && bo.parent != n.Parent.Block {
				err = fmt.Errorf("meta-tree edge mismatch at block %v", n.Block)
				return
			}
			if n.Parent == nil && n != reg.Root {
				err = fmt.Errorf("region %v has a second root", addr)
				return
			}
			// Ancestry: member depth never shallower than the root's.
			if n.Len < reg.Root.Len {
				err = fmt.Errorf("region %v member shallower than its root", addr)
			}
		})
		if err != nil {
			return err
		}
		// Region-boundary parents: a region root's block parent must have
		// its meta elsewhere (or be the data root).
		if reg.Root.Len > 0 {
			bo := blocks[reg.Root.Block]
			if bo.parent.IsNil() {
				return fmt.Errorf("non-root region %v root has no parent block", addr)
			}
		}
	}
	if len(t.regionBound) != len(regions) {
		return fmt.Errorf("host holds %d region bounds for %d live regions", len(t.regionBound), len(regions))
	}
	var stale error
	t.master.each(func(h uint64, e masterEntry) {
		if stale == nil && !masterSeen[h] {
			stale = fmt.Errorf("stale master entry %#x -> %v", h, e.Region)
		}
	})
	if stale != nil {
		return stale
	}
	// Master replicas must match the host copy key for key, Len for Len,
	// depth bound included (a replica stores nothing else).
	hostMax := t.master.scanMaxLen()
	if t.masterBound() != hostMax {
		return fmt.Errorf("host master table reports depth bound %d, its entries reach %d", t.masterBound(), hostMax)
	}
	for i := 0; i < t.sys.P(); i++ {
		mo := t.sys.Module(i).Get(t.masterAddrs[i].ID).(*masterObj)
		if mo.entries.Len() != t.master.Len() {
			return fmt.Errorf("module %d master replica has %d entries, host %d", i, mo.entries.Len(), t.master.Len())
		}
		var diverged error
		t.master.each(func(h uint64, e masterEntry) {
			if me, ok := mo.entries.Get(h); diverged == nil && (!ok || me.Len != e.Len) {
				diverged = fmt.Errorf("module %d master replica diverges at %#x", i, h)
			}
		})
		if diverged != nil {
			return diverged
		}
		if own := mo.entries.scanMaxLen(); mo.entries.MaxLen() != own || own != hostMax {
			return fmt.Errorf("module %d master replica reports depth bound %d, its entries reach %d, the host's %d",
				i, mo.entries.MaxLen(), own, hostMax)
		}
	}
	return nil
}
