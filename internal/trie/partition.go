package trie

import (
	"fmt"
	"sort"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// This file implements the blocking machinery of §4.2: splitting long
// edges, partitioning a trie into blocks of bounded weight, and
// extracting the blocks as stand-alone tries with mirror leaves.
//
// The paper partitions with a weighted Euler-tour algorithm (for CPU
// depth); we use an equivalent bottom-up weighted clustering that yields
// the same guarantees the analysis needs — every block at most maxWords
// words, O(Q_T/maxWords) blocks — with a strict (not just asymptotic)
// size bound, which simplifies the push/pull threshold logic.

// Mirror and Anchor are structural node roles introduced by blocking:
//   - a Mirror is the replica of a child block's root kept as a leaf in
//     the parent block (dashed circles in Figure 2);
//   - an Anchor is a compressed node inserted to cut an over-long edge.
//
// Both are exempt from the two-children-or-value invariant.

// SplitLongEdges inserts anchor nodes so that no edge label exceeds
// maxBits bits, returning the number of anchors added. The paper cuts
// edges longer than K_B words the same way, adding O(L_D/(w·K_B)) nodes.
func (t *Trie) SplitLongEdges(maxBits int) int {
	if maxBits < 1 {
		panic("trie: SplitLongEdges needs maxBits >= 1")
	}
	added := 0
	var rec func(n *Node)
	rec = func(n *Node) {
		for b := 0; b < 2; b++ {
			e := n.Child[b]
			if e == nil {
				continue
			}
			for e.Label.Len() > maxBits {
				mid := t.splitEdge(e, maxBits)
				mid.Anchor = true
				added++
				// e is now the upper piece; continue with the lower.
				e = mid.childAny()
			}
			rec(e.To)
		}
	}
	rec(t.root)
	return added
}

// childAny returns the single child edge of a node known to have exactly
// one child (anchors fresh from a split).
func (n *Node) childAny() *Edge {
	if n.Child[0] != nil {
		return n.Child[0]
	}
	return n.Child[1]
}

// MinBlockWords is the smallest supported block bound; below it a single
// node plus two split edges may not fit.
const MinBlockWords = 32

// Partition chooses block roots so that every block (a sub-trie from its
// root down to, and including mirrors of, the next block roots) weighs at
// most maxWords words. It first splits edges longer than maxWords/4
// words. The returned slice holds the non-root cut nodes; the trie root
// always roots the first block. Weights follow SizeWords' accounting.
func (t *Trie) Partition(maxWords int) []*Node {
	if maxWords < MinBlockWords {
		panic(fmt.Sprintf("trie: Partition bound %d < MinBlockWords", maxWords))
	}
	t.SplitLongEdges(maxWords / 4 * bitstr.WordBits)
	var cuts []*Node
	type kid struct {
		node  *Node
		w     int // accumulated block weight if kept inline
		edgeW int
	}
	var rec func(n *Node) int
	rec = func(n *Node) int {
		acc := NodeCostWords
		var kids []kid
		for b := 0; b < 2; b++ {
			if e := n.Child[b]; e != nil {
				w := rec(e.To)
				kids = append(kids, kid{e.To, w, EdgeCostWords + e.Label.Words()})
			}
		}
		for _, k := range kids {
			acc += k.edgeW + k.w
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].w > kids[j].w })
		for i := 0; acc > maxWords && i < len(kids); i++ {
			acc -= kids[i].w
			acc += NodeCostWords // the mirror leaf replica
			cuts = append(cuts, kids[i].node)
		}
		return acc
	}
	rec(t.root)
	return cuts
}

// BlockSpec is one extracted block: a stand-alone trie whose root
// corresponds to RootString in the original key space, with mirror
// leaves standing in for the roots of its child blocks.
type BlockSpec struct {
	RootString bitstr.String // full string represented by the block root
	Trie       *Trie         // stand-alone block trie (root depth 0)
	Mirrors    []MirrorRef   // one per child block, in DFS order
}

// MirrorRef links a mirror leaf inside a block to the child block it
// represents.
type MirrorRef struct {
	Node       *Node         // the mirror leaf within BlockSpec.Trie
	RootString bitstr.String // full string of the child block's root
	ChildIndex int           // index of the child block in the extraction result
}

// SizeWords of the block including its trie (for module space accounting:
// the root-hash metadata is charged by the hash value manager).
func (b *BlockSpec) SizeWords() int {
	if b == nil || b.Trie == nil {
		return 1
	}
	return b.Trie.SizeWords() + b.RootString.SizeWords()
}

// ExtractBlocks copies the trie into stand-alone blocks cut at the given
// nodes. Result[0] is the block rooted at the trie root; Mirrors[i].
// ChildIndex links parent blocks to child blocks. The original trie is
// left untouched. Node depths inside each block are relative to the
// block root; values are kept at the real nodes (mirrors carry none).
func (t *Trie) ExtractBlocks(cutNodes []*Node) []*BlockSpec {
	isCut := make(map[*Node]bool, len(cutNodes))
	for _, n := range cutNodes {
		if n == t.root {
			continue // the root is implicitly a block root, never a mirror
		}
		isCut[n] = true
	}
	var blocks []*BlockSpec
	index := map[*Node]int{} // original cut node -> block index
	// First pass: allocate block order deterministically (preorder).
	order := []*Node{t.root}
	t.WalkPreorder(func(n *Node) bool {
		if n != t.root && isCut[n] {
			order = append(order, n)
		}
		return true
	})
	for i, n := range order {
		index[n] = i
	}
	blocks = make([]*BlockSpec, len(order))
	for i, start := range order {
		bt := New()
		spec := &BlockSpec{RootString: NodeString(start), Trie: bt}
		bt.root.HasValue = start.HasValue
		bt.root.Value = start.Value
		if start.HasValue {
			bt.keys++
		}
		var copyRec func(srcParent *Node, dstParent *Node, prefixFromBlock bitstr.String)
		copyRec = func(src *Node, dst *Node, prefix bitstr.String) {
			for b := 0; b < 2; b++ {
				e := src.Child[b]
				if e == nil {
					continue
				}
				child := e.To
				cp := &Node{}
				bt.nodes++
				bt.attach(dst, e.Label, cp)
				if isCut[child] {
					cp.Mirror = true
					spec.Mirrors = append(spec.Mirrors, MirrorRef{
						Node:       cp,
						RootString: spec.RootString.Concat(prefix).Concat(e.Label),
						ChildIndex: index[child],
					})
					continue
				}
				cp.HasValue = child.HasValue
				cp.Value = child.Value
				cp.Anchor = child.Anchor
				cp.Mirror = child.Mirror
				if cp.HasValue {
					bt.keys++
				}
				if !cp.Mirror {
					copyRec(child, cp, prefix.Concat(e.Label))
				}
			}
		}
		copyRec(start, bt.root, bitstr.Empty)
		blocks[i] = spec
	}
	return blocks
}
