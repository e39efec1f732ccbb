// Package trie implements the sequential binary compressed trie (binary
// radix tree / Patricia trie) that underlies PIM-trie (paper §3.1, §4
// "Basic Structures and Terminology").
//
// A Trie stores (bit-string key → value) pairs. Path compression keeps
// only compressed nodes: nodes that have two children, are the endpoint
// of a stored key, or are the root. All other prefixes exist implicitly
// as hidden nodes — positions in the middle of a compressed edge —
// referred to by (edge, offset) pairs.
//
// Besides the dictionary operations (Insert, Delete, Get, LCPLen,
// SubtreeKeys), the package provides the structural operations PIM-trie
// needs: splitting long edges, weighted Euler-tour block partitioning
// ([9] extended to node weights, §4.2), extraction of stand-alone block
// tries, and pre/post-order scans (the sequential core of the paper's
// treefix operations).
package trie

import (
	"fmt"
	"strings"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// Node is a compressed node. Its represented string is the concatenation
// of edge labels from the root; Depth is that string's length in bits.
//
// A Node is 48 bytes on 64-bit platforms: five words, then Index and
// the three flags packed into the sixth (core.TestNodeLayout pins it).
// There is no parent pointer — the parent is ParentEdge.From.
type Node struct {
	ParentEdge *Edge    // nil at the root
	Child      [2]*Edge // indexed by the first bit of the edge label
	Value      uint64
	Depth      int

	// Index is a dense identifier for builders that keep array-indexed
	// per-node side data (querytrie assigns preorder numbers so node
	// hashes live in a flat []Value instead of a pointer-keyed map).
	// The trie itself never reads or maintains it.
	Index int32

	HasValue bool
	// Mirror marks a replica of a child block's root kept as a leaf in
	// the parent block (§4.2); Anchor marks a node inserted to cut an
	// over-long edge. Both are exempt from the compression invariant and
	// are only ever set by the blocking machinery in partition.go.
	Mirror bool
	Anchor bool
}

// Parent returns n's parent, nil at the root.
func (n *Node) Parent() *Node {
	if n.ParentEdge == nil {
		return nil
	}
	return n.ParentEdge.From
}

// Edge is a compressed edge with a non-empty bit-string label. The first
// bit of Label determines its slot in From.Child.
type Edge struct {
	Label    bitstr.String
	From, To *Node
}

// HiddenRef identifies a hidden node: Offset bits down Edge's label
// (0 < Offset < Label.Len()); see §4 "Basic Structures".
type HiddenRef struct {
	Edge   *Edge
	Offset int
}

// NodeCostWords and EdgeCostWords are the fixed per-object space charges
// used by SizeWords: a node stores two child pointers, parent pointer and
// value; an edge stores two endpoints plus its label words.
const (
	NodeCostWords = 4
	EdgeCostWords = 2
)

// Trie is a binary compressed trie. The zero value is not usable; call
// New. A Trie is not safe for concurrent mutation.
type Trie struct {
	root     *Node
	keys     int
	nodes    int
	edgeBits int // L_T: aggregate bits over all edge labels
}

// New returns an empty trie whose root represents the empty string.
func New() *Trie {
	return &Trie{root: &Node{}, nodes: 1}
}

// Root returns the root node (depth 0).
func (t *Trie) Root() *Node { return t.root }

// KeyCount returns n_T, the number of stored key-value pairs.
func (t *Trie) KeyCount() int { return t.keys }

// NodeCount returns the number of compressed nodes.
func (t *Trie) NodeCount() int { return t.nodes }

// EdgeBits returns L_T, the aggregate length of all edge labels in bits.
func (t *Trie) EdgeBits() int { return t.edgeBits }

// SizeWords returns Q_T = O(L_T/w + n_T), the compressed-trie space in
// machine words under the model's accounting.
func (t *Trie) SizeWords() int {
	edges := t.nodes - 1
	if edges < 0 {
		edges = 0
	}
	return t.nodes*NodeCostWords + edges*EdgeCostWords + (t.edgeBits+bitstr.WordBits-1)/bitstr.WordBits
}

// attach links a new edge with the given label from parent to child and
// updates the aggregate counters.
func (t *Trie) attach(parent *Node, label bitstr.String, child *Node) *Edge {
	e := &Edge{Label: label, From: parent, To: child}
	parent.Child[label.FirstBit()] = e
	child.ParentEdge = e
	child.Depth = parent.Depth + label.Len()
	t.edgeBits += label.Len()
	return e
}

// detach removes child's parent edge and updates counters; the child and
// its subtree remain intact but disconnected.
func (t *Trie) detach(child *Node) {
	e := child.ParentEdge
	if e == nil {
		return
	}
	e.From.Child[e.Label.FirstBit()] = nil
	t.edgeBits -= e.Label.Len()
	child.ParentEdge = nil
}

// splitEdge materializes the hidden node Offset bits down e, returning
// the new compressed node. Counters are updated; the new node has no
// value and exactly the original subtree below it.
func (t *Trie) splitEdge(e *Edge, offset int) *Node {
	if offset <= 0 || offset >= e.Label.Len() {
		panic(fmt.Sprintf("trie: splitEdge offset %d outside (0,%d)", offset, e.Label.Len()))
	}
	upper := e.Label.Prefix(offset)
	lower := e.Label.Suffix(offset)
	mid := &Node{}
	t.nodes++
	parent, child := e.From, e.To
	// Reuse e as the upper edge to keep parent's slot stable.
	e.Label = upper
	e.To = mid
	mid.ParentEdge = e
	mid.Depth = parent.Depth + offset
	low := &Edge{Label: lower, From: mid, To: child}
	mid.Child[lower.FirstBit()] = low
	child.ParentEdge = low
	return mid
}

// locate walks the trie along key and reports how it ends:
//   - node != nil, rem == Empty: key's locus is exactly node;
//   - node != nil, rem != Empty, edge == nil: key leaves node with no
//     matching child (rem is the unmatched remainder);
//   - edge != nil: the walk stopped inside edge after matching `off` bits
//     of its label; rem is the key remainder from the edge start.
//
// matched is the LCP length between key and the stored set's prefixes.
func (t *Trie) locate(key bitstr.String) (node *Node, edge *Edge, off int, rem bitstr.String, matched int) {
	cur := t.root
	pos := 0
	for {
		if pos == key.Len() {
			return cur, nil, 0, bitstr.Empty, pos
		}
		e := cur.Child[key.BitAt(pos)]
		if e == nil {
			return cur, nil, 0, key.Suffix(pos), pos
		}
		// Compare the label against the key in place; the remainder is
		// materialized once at the exit, not on every edge step.
		n := key.Len() - pos
		if n > e.Label.Len() {
			n = e.Label.Len()
		}
		l := bitstr.LCPRange(e.Label, 0, key, pos, n)
		if l < e.Label.Len() {
			return nil, e, l, key.Suffix(pos), pos + l
		}
		pos += e.Label.Len()
		cur = e.To
	}
}

// Insert stores value under key, replacing any previous value, and
// reports whether the key was new.
func (t *Trie) Insert(key bitstr.String, value uint64) bool {
	node, edge, off, rem, _ := t.locate(key)
	switch {
	case node != nil && rem.IsEmpty():
		// Locus is an existing compressed node.
		fresh := !node.HasValue
		node.HasValue = true
		node.Value = value
		if fresh {
			t.keys++
		}
		return fresh
	case node != nil:
		// New leaf hanging off an existing node.
		leaf := &Node{HasValue: true, Value: value}
		t.nodes++
		t.attach(node, rem, leaf)
		t.keys++
		return true
	default:
		// The walk stopped inside an edge: split it.
		mid := t.splitEdge(edge, off)
		if off == rem.Len() {
			// Key ends exactly at the hidden node.
			mid.HasValue = true
			mid.Value = value
			t.keys++
			return true
		}
		leaf := &Node{HasValue: true, Value: value}
		t.nodes++
		t.attach(mid, rem.Suffix(off), leaf)
		t.keys++
		return true
	}
}

// InsertMirror grafts a mirror leaf at key carrying slot as its Value
// (mirrors use Value as a child-block slot index, never as a stored
// key's payload). It is used when rebuilding a lost block host-side:
// the child-block roots form an antichain that no retained key extends,
// so the mirror's position is always fresh — a new leaf hanging off an
// existing node or a hidden node inside an edge. Any other outcome
// means the caller's key set was inconsistent, and InsertMirror panics.
func (t *Trie) InsertMirror(key bitstr.String, slot uint64) *Node {
	node, edge, off, rem, _ := t.locate(key)
	leaf := &Node{Mirror: true, Value: slot}
	switch {
	case node != nil && !rem.IsEmpty():
		t.nodes++
		t.attach(node, rem, leaf)
	case edge != nil && off < rem.Len():
		mid := t.splitEdge(edge, off)
		t.nodes++
		t.attach(mid, rem.Suffix(off), leaf)
	default:
		panic(fmt.Sprintf("trie: InsertMirror at %s: position not fresh", key))
	}
	return leaf
}

// Get returns the value stored under key.
func (t *Trie) Get(key bitstr.String) (uint64, bool) {
	node, _, _, rem, _ := t.locate(key)
	if node != nil && rem.IsEmpty() && node.HasValue {
		return node.Value, true
	}
	return 0, false
}

// LCPLen returns the length in bits of the longest common prefix between
// key and any prefix present in the trie (compressed or hidden), i.e. the
// LongestCommonPrefix query of §5.1 restricted to this local trie.
func (t *Trie) LCPLen(key bitstr.String) int {
	_, _, _, _, matched := t.locate(key)
	return matched
}

// childCount returns the number of children of n.
func childCount(n *Node) int {
	c := 0
	if n.Child[0] != nil {
		c++
	}
	if n.Child[1] != nil {
		c++
	}
	return c
}

// compress removes n if it is a non-root, valueless, single-child node,
// merging its two incident edges; it then recurses upward.
func (t *Trie) compress(n *Node) {
	for n != nil && n != t.root && !n.HasValue && !n.Mirror {
		switch childCount(n) {
		case 0:
			parent := n.Parent()
			t.detach(n)
			t.nodes--
			n = parent
		case 1:
			var down *Edge
			if n.Child[0] != nil {
				down = n.Child[0]
			} else {
				down = n.Child[1]
			}
			up := n.ParentEdge
			merged := up.Label.Concat(down.Label)
			child := down.To
			// Collapse: up.From --merged--> child.
			t.edgeBits -= up.Label.Len() + down.Label.Len()
			up.Label = merged
			up.To = child
			t.edgeBits += merged.Len()
			child.ParentEdge = up
			t.nodes--
			return
		default:
			return
		}
	}
}

// Delete removes key and reports whether it was present.
func (t *Trie) Delete(key bitstr.String) bool {
	node, _, _, rem, _ := t.locate(key)
	if node == nil || !rem.IsEmpty() || !node.HasValue {
		return false
	}
	node.HasValue = false
	t.keys--
	t.compress(node)
	return true
}

// RemoveLeaf detaches a childless node (typically a mirror leaf) and
// recompresses around its former parent. It panics if n has children or
// is the root.
func (t *Trie) RemoveLeaf(n *Node) {
	if childCount(n) != 0 {
		panic("trie: RemoveLeaf of a node with children")
	}
	if n == t.root {
		panic("trie: RemoveLeaf of the root")
	}
	if n.HasValue {
		n.HasValue = false
		t.keys--
	}
	parent := n.Parent()
	t.detach(n)
	t.nodes--
	t.compress(parent)
}

// NodeString reconstructs the full bit string represented by n in O(depth)
// time. Intended for tests, debugging, and result materialization.
func NodeString(n *Node) bitstr.String {
	var parts []bitstr.String
	for e := n.ParentEdge; e != nil; e = e.From.ParentEdge {
		parts = append(parts, e.Label)
	}
	s := bitstr.Empty
	for i := len(parts) - 1; i >= 0; i-- {
		s = s.Concat(parts[i])
	}
	return s
}

// KV is a stored key-value pair.
type KV struct {
	Key   bitstr.String
	Value uint64
}

// WalkPreorder visits every compressed node top-down. Returning false
// from fn prunes the subtree below that node.
func (t *Trie) WalkPreorder(fn func(n *Node) bool) {
	walkPre(t.root, fn)
}

func walkPre(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for b := 0; b < 2; b++ {
		if e := n.Child[b]; e != nil {
			walkPre(e.To, fn)
		}
	}
}

// WalkPostorder visits every compressed node bottom-up (the sequential
// form of the paper's leaffix scan).
func (t *Trie) WalkPostorder(fn func(n *Node)) {
	walkPost(t.root, fn)
}

func walkPost(n *Node, fn func(*Node)) {
	for b := 0; b < 2; b++ {
		if e := n.Child[b]; e != nil {
			walkPost(e.To, fn)
		}
	}
	fn(n)
}

// MinKey returns the lexicographically smallest stored key.
func (t *Trie) MinKey() (bitstr.String, bool) {
	return extremeKey(t.root, bitstr.Empty, 0)
}

// MaxKey returns the lexicographically largest stored key.
func (t *Trie) MaxKey() (bitstr.String, bool) {
	return extremeKey(t.root, bitstr.Empty, 1)
}

// extremeKey walks toward child branch `dir` (0 = min, 1 = max). With
// the prefix-first order, the min is the first valued node in preorder
// and the max is the deepest valued node on the rightmost valued path.
func extremeKey(n *Node, prefix bitstr.String, dir int) (bitstr.String, bool) {
	if dir == 0 {
		if n.HasValue {
			return prefix, true
		}
		for b := 0; b < 2; b++ {
			if e := n.Child[b]; e != nil {
				if k, ok := extremeKey(e.To, prefix.Concat(e.Label), 0); ok {
					return k, true
				}
			}
		}
		return bitstr.Empty, false
	}
	for b := 1; b >= 0; b-- {
		if e := n.Child[b]; e != nil {
			if k, ok := extremeKey(e.To, prefix.Concat(e.Label), 1); ok {
				return k, true
			}
		}
	}
	if n.HasValue {
		return prefix, true
	}
	return bitstr.Empty, false
}

// Keys returns all stored pairs in lexicographic key order.
func (t *Trie) Keys() []KV {
	var out []KV
	var rec func(n *Node, prefix bitstr.String)
	rec = func(n *Node, prefix bitstr.String) {
		if n.HasValue {
			out = append(out, KV{Key: prefix, Value: n.Value})
		}
		for b := 0; b < 2; b++ {
			if e := n.Child[b]; e != nil {
				rec(e.To, prefix.Concat(e.Label))
			}
		}
	}
	rec(t.root, bitstr.Empty)
	return out
}

// SubtreeKeys returns, in order, every stored pair whose key has the
// given prefix — the result set of a SubtreeQuery (§5.3) on this trie.
func (t *Trie) SubtreeKeys(prefix bitstr.String) []KV {
	node, edge, off, rem, _ := t.locate(prefix)
	var start *Node
	var stem bitstr.String
	switch {
	case node != nil && rem.IsEmpty():
		start, stem = node, prefix
	case edge != nil && off == rem.Len():
		// Prefix ends on a hidden node inside edge: everything below
		// edge.To qualifies.
		start = edge.To
		stem = prefix.Concat(edge.Label.Suffix(off))
	default:
		return nil
	}
	var out []KV
	var rec func(n *Node, p bitstr.String)
	rec = func(n *Node, p bitstr.String) {
		if n.HasValue {
			out = append(out, KV{Key: p, Value: n.Value})
		}
		for b := 0; b < 2; b++ {
			if e := n.Child[b]; e != nil {
				rec(e.To, p.Concat(e.Label))
			}
		}
	}
	rec(start, stem)
	return out
}

// CheckInvariants verifies structural soundness: path-compression (every
// non-root node has a value or two children), consistent depths, parent
// links, counters, and child-slot/first-bit agreement. Tests call it
// after every mutation batch.
func (t *Trie) CheckInvariants() error {
	nodes, keys, bits := 0, 0, 0
	var rec func(n *Node) error
	rec = func(n *Node) error {
		nodes++
		if n.HasValue {
			keys++
		}
		if n != t.root && !n.HasValue && !n.Mirror && !n.Anchor && childCount(n) < 2 {
			return fmt.Errorf("non-root node at depth %d has %d children and no value", n.Depth, childCount(n))
		}
		if n.Mirror && (childCount(n) != 0 || n.HasValue) {
			return fmt.Errorf("mirror node at depth %d has children or a value", n.Depth)
		}
		for b := 0; b < 2; b++ {
			e := n.Child[b]
			if e == nil {
				continue
			}
			if e.Label.IsEmpty() {
				return fmt.Errorf("empty edge label below depth %d", n.Depth)
			}
			if int(e.Label.FirstBit()) != b {
				return fmt.Errorf("edge in slot %d starts with bit %d", b, e.Label.FirstBit())
			}
			if e.From != n || e.To.ParentEdge != e {
				return fmt.Errorf("broken links below depth %d", n.Depth)
			}
			if e.To.Depth != n.Depth+e.Label.Len() {
				return fmt.Errorf("depth mismatch: %d + %d != %d", n.Depth, e.Label.Len(), e.To.Depth)
			}
			bits += e.Label.Len()
			if err := rec(e.To); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root); err != nil {
		return err
	}
	if nodes != t.nodes {
		return fmt.Errorf("node count %d != counter %d", nodes, t.nodes)
	}
	if keys != t.keys {
		return fmt.Errorf("key count %d != counter %d", keys, t.keys)
	}
	if bits != t.edgeBits {
		return fmt.Errorf("edge bits %d != counter %d", bits, t.edgeBits)
	}
	return nil
}

// Dump renders the trie structure for debugging.
func (t *Trie) Dump() string {
	var b strings.Builder
	var rec func(n *Node, indent string)
	rec = func(n *Node, indent string) {
		mark := ""
		if n.HasValue {
			mark = fmt.Sprintf(" =%d", n.Value)
		}
		fmt.Fprintf(&b, "%s•(d=%d)%s\n", indent, n.Depth, mark)
		for bit := 0; bit < 2; bit++ {
			if e := n.Child[bit]; e != nil {
				fmt.Fprintf(&b, "%s├─%s\n", indent, e.Label)
				rec(e.To, indent+"│ ")
			}
		}
	}
	rec(t.root, "")
	return b.String()
}
