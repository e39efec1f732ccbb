// Package hvm implements the structural logic of PIM-trie's hash value
// manager (paper §4.4): meta-nodes (the per-block metadata records),
// meta-blocks ("regions" — connected pieces of the meta-tree, each stored
// on one PIM module), cut-node selection (Lemma 4.5), region splitting,
// and the recursive meta-block decomposition of §4.4.1 (Figure 4).
//
// The package is deliberately free of PIM orchestration: it manipulates
// in-memory structures and is unit-tested standalone. Package core owns
// distribution, communication accounting and the matching protocol.
package hvm

import (
	"fmt"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
)

// MetaNode is the metadata for one data-trie block: the node hash of the
// block root, its length, the last ≤w bits of the root string (S_last,
// used by differentiated verification, §4.4.3), and the address of the
// block object. Tree links mirror the block tree: children in the same
// region are held directly; children whose regions were split off are
// reachable through ChildRegions.
type MetaNode struct {
	Hash  uint64
	Len   int
	SLast bitstr.String
	Block pim.Addr

	// Pivot-matching augmentation (§4.4.2): the full-width hash key of
	// the root string's longest w-multiple prefix, and the sub-word
	// remainder after it (|SRem| = Len mod w < w bits).
	HashPre uint64
	SRem    bitstr.String

	Parent       *MetaNode
	Children     []*MetaNode
	ChildRegions []pim.Addr
}

// NodeCostWords is the per-meta-node space charge: hash, length, block
// address, links, plus one word of S_last.
const NodeCostWords = 6

// Region is one meta-block: a connected piece of the meta-tree indexed
// by block-root hash. Regions are the unit of distribution — package
// core stores each Region as a single PIM object.
//
// maxLen is the region's depth bound: the largest Len of any member. A
// probe at depth d can only verify against a member of Len d, so region
// HashMatching stops hashing a query edge at MaxLen. It is exact at all
// times — raised wherever a member enters the index, recomputed (a scan
// of ≤ K_MB members) when a deepest member leaves — so a region that
// once held a deep block does not keep paying for it. It rides in the
// header words SizeWords already charges.
type Region struct {
	Root  *MetaNode
	Index map[uint64]*MetaNode

	maxLen int

	pivot      map[uint64]pivotClass // by HashPre; see pivot.go
	pivotDirty bool
}

// ErrHashCollision is returned when two distinct block roots produce the
// same hash output — the trigger for the global re-hash of §4.4.3.
type ErrHashCollision struct {
	Hash uint64
}

func (e ErrHashCollision) Error() string {
	return fmt.Sprintf("hvm: block-root hash collision on %#x", e.Hash)
}

// NewRegionTree wraps an already-linked meta-node tree as a region
// without collision checking (duplicate hashes overwrite in the index).
// Callers must Reindex every final region after splitting — the paper's
// uniqueness requirement applies per lookup table, so collisions are
// checked where lookups happen.
func NewRegionTree(root *MetaNode) *Region {
	r := &Region{Root: root, Index: map[uint64]*MetaNode{}}
	var rec func(n *MetaNode)
	rec = func(n *MetaNode) {
		r.add(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(root)
	return r
}

// add indexes n and raises the depth bound to cover it.
func (r *Region) add(n *MetaNode) {
	r.Index[n.Hash] = n
	if n.Len > r.maxLen {
		r.maxLen = n.Len
	}
}

// lost re-establishes the depth bound after members no deeper than
// deepest have left the index: only the loss of a deepest member can
// lower it.
func (r *Region) lost(deepest int) {
	if deepest < r.maxLen {
		return
	}
	r.maxLen = maxIndexLen(r.Index)
}

func maxIndexLen(idx map[uint64]*MetaNode) int {
	m := 0
	for _, n := range idx {
		if n.Len > m {
			m = n.Len
		}
	}
	return m
}

// MaxLen returns the largest Len of any member (0 for an emptied region).
func (r *Region) MaxLen() int { return r.maxLen }

// Reindex rebuilds the index from the tree, returning ErrHashCollision
// if two nodes in this region share a hash output.
func (r *Region) Reindex() error {
	idx := make(map[uint64]*MetaNode, len(r.Index))
	var err error
	var rec func(n *MetaNode)
	rec = func(n *MetaNode) {
		if _, dup := idx[n.Hash]; dup && err == nil {
			err = ErrHashCollision{Hash: n.Hash}
		}
		idx[n.Hash] = n
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(r.Root)
	if err != nil {
		return err
	}
	r.Index, r.maxLen = idx, maxIndexLen(idx)
	r.markDirty()
	return nil
}

// NewRegion creates a region containing just the given root node.
func NewRegion(root *MetaNode) *Region {
	return &Region{Root: root, Index: map[uint64]*MetaNode{root.Hash: root}, maxLen: root.Len}
}

// Len returns the number of meta-nodes in the region.
func (r *Region) Len() int { return len(r.Index) }

// SizeWords returns the region's PIM-memory footprint in words.
func (r *Region) SizeWords() int {
	return r.Len()*NodeCostWords + 2
}

// Lookup returns the meta-node with the given block-root hash, or nil.
func (r *Region) Lookup(h uint64) *MetaNode { return r.Index[h] }

// Insert adds child under parent (which must be in the region). It
// returns ErrHashCollision if a different root already uses the hash —
// equal hash with equal (Len, SLast) still collides structurally because
// block roots are unique strings, so any duplicate is a collision.
func (r *Region) Insert(parent, child *MetaNode) error {
	if r.Index[parent.Hash] != parent {
		panic("hvm: Insert parent not in region")
	}
	if _, exists := r.Index[child.Hash]; exists {
		return ErrHashCollision{Hash: child.Hash}
	}
	child.Parent = parent
	parent.Children = append(parent.Children, child)
	r.add(child)
	r.markDirty()
	return nil
}

// RemoveAny deletes n from the region regardless of its position, while
// preserving the ancestry invariant the matching protocol relies on:
// every region's root must be a data-trie ancestor of all its members.
//
//   - Interior node: its children (and child-region refs) splice to its
//     parent — still descendants of every ancestor. Returns the region's
//     root unchanged and no spawned regions.
//   - Root with one child subtree: the child is promoted (returned as
//     newRoot; the caller must update the master table).
//   - Root with several children: the subtrees are *not* siblings of one
//     another in the data trie, so the region must split — the first
//     child's subtree stays in the receiver (promoted root), each other
//     child's subtree is returned as a spawned region the caller must
//     place and register.
//   - Root with no children: the region empties; newRoot is nil.
func (r *Region) RemoveAny(n *MetaNode) (newRoot *MetaNode, spawned []*Region) {
	if r.Index[n.Hash] != n {
		panic("hvm: RemoveAny of node not in region")
	}
	delete(r.Index, n.Hash)
	r.markDirty()
	if n != r.Root {
		r.lost(n.Len)
		p := n.Parent
		for i, c := range p.Children {
			if c == n {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
		for _, c := range n.Children {
			c.Parent = p
			p.Children = append(p.Children, c)
		}
		p.ChildRegions = append(p.ChildRegions, n.ChildRegions...)
		n.Parent, n.Children, n.ChildRegions = nil, nil, nil
		return r.Root, nil
	}
	if len(n.Children) == 0 {
		r.Root, r.maxLen = nil, 0
		return nil, nil
	}
	children := n.Children
	n.Children, n.ChildRegions = nil, nil
	promoted := children[0]
	promoted.Parent = nil
	r.Root = promoted
	deepest := n.Len
	for _, c := range children[1:] {
		c.Parent = nil
		nr := NewRegion(c)
		r.moveSubtree(c, nr)
		deepest = max(deepest, nr.maxLen)
		spawned = append(spawned, nr)
	}
	r.lost(deepest)
	return promoted, spawned
}

// moveSubtree moves the index entries of v's same-region subtree from r
// to nr, raising nr's depth bound; the caller settles r's with lost.
func (r *Region) moveSubtree(v *MetaNode, nr *Region) {
	delete(r.Index, v.Hash)
	nr.add(v)
	for _, ch := range v.Children {
		r.moveSubtree(ch, nr)
	}
}

// Reparent moves child (and its subtree) beneath newParent; both must be
// members of this region. It preserves the index (no hashes change).
func (r *Region) Reparent(child, newParent *MetaNode) {
	if r.Index[child.Hash] != child || r.Index[newParent.Hash] != newParent {
		panic("hvm: Reparent outside the region")
	}
	if p := child.Parent; p != nil {
		for i, c := range p.Children {
			if c == child {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
	}
	child.Parent = newParent
	newParent.Children = append(newParent.Children, child)
}

// MoveChildRegion transfers one occurrence of a child-region reference
// from one member to another, reporting whether it was found.
func (r *Region) MoveChildRegion(from, to *MetaNode, addr pim.Addr) bool {
	for i, a := range from.ChildRegions {
		if a == addr {
			from.ChildRegions = append(from.ChildRegions[:i], from.ChildRegions[i+1:]...)
			to.ChildRegions = append(to.ChildRegions, addr)
			return true
		}
	}
	return false
}

// subtreeSize counts meta-nodes in n's same-region subtree.
func subtreeSize(n *MetaNode) int {
	s := 1
	for _, c := range n.Children {
		s += subtreeSize(c)
	}
	return s
}

// CutNode returns the node of the tree rooted at root whose out-edge
// removal minimizes the maximum remaining component, together with that
// maximum. Lemma 4.5 guarantees the optimum is at most (n+1)/2.
func CutNode(root *MetaNode) (*MetaNode, int) {
	n := subtreeSize(root)
	var best *MetaNode
	bestMax := n + 1
	var rec func(v *MetaNode) int // returns subtree size
	rec = func(v *MetaNode) int {
		size := 1
		maxComp := 0
		for _, c := range v.Children {
			cs := rec(c)
			size += cs
			if cs > maxComp {
				maxComp = cs
			}
		}
		// Removing v's out-edges leaves components: each child subtree,
		// and the rest of the tree (n - size + 1, including v itself).
		if rest := n - size + 1; rest > maxComp {
			maxComp = rest
		}
		if maxComp < bestMax {
			bestMax = maxComp
			best = v
		}
		return size
	}
	rec(root)
	return best, bestMax
}

// Split removes the optimal cut node's child subtrees from the region,
// returning the cut node and one new region per child. The cut node
// remains in the receiver; its same-region children become roots of the
// new regions and must be re-linked by the caller via ChildRegions once
// the new regions have PIM addresses. Split panics on single-node
// regions.
func (r *Region) Split() (*MetaNode, []*Region) {
	if r.Len() < 2 {
		panic("hvm: Split of trivial region")
	}
	cut, _ := CutNode(r.Root)
	if len(cut.Children) == 0 {
		// The optimal cut of a ≥2-node tree always has children unless the
		// tree is a single path ending at cut; fall back to cutting at the
		// root in that case.
		cut = r.Root
	}
	var out []*Region
	deepest := 0
	for _, c := range cut.Children {
		c.Parent = nil
		nr := NewRegion(c)
		r.moveSubtree(c, nr)
		deepest = max(deepest, nr.maxLen)
		out = append(out, nr)
	}
	cut.Children = nil
	r.lost(deepest)
	r.markDirty()
	return cut, out
}

// Walk visits every meta-node in the region top-down.
func (r *Region) Walk(fn func(n *MetaNode)) {
	var rec func(v *MetaNode)
	rec = func(v *MetaNode) {
		fn(v)
		for _, c := range v.Children {
			rec(c)
		}
	}
	rec(r.Root)
}

// Validate checks region invariants: the index covers exactly the tree,
// parent/child links are consistent, the root has no parent, and the
// depth bound is the deepest member's length.
func (r *Region) Validate() error {
	if r.Root.Parent != nil {
		return fmt.Errorf("hvm: region root has a parent")
	}
	seen := 0
	var err error
	r.Walk(func(n *MetaNode) {
		seen++
		if r.Index[n.Hash] != n {
			err = fmt.Errorf("hvm: node %#x missing from index", n.Hash)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				err = fmt.Errorf("hvm: broken parent link under %#x", n.Hash)
			}
		}
	})
	if err != nil {
		return err
	}
	if seen != len(r.Index) {
		return fmt.Errorf("hvm: index has %d entries, tree has %d nodes", len(r.Index), seen)
	}
	if want := maxIndexLen(r.Index); r.maxLen != want {
		return fmt.Errorf("hvm: depth bound %d, deepest member has length %d", r.maxLen, want)
	}
	return nil
}
