// Package querytrie builds the query trie of §4.1 (Algorithm 1): the
// Patricia trie over the keys of one operation batch, constructed in the
// CPU cache as a preprocessing step. Processing a whole query trie
// instead of individual strings is what lets PIM-trie share work across
// queries with common prefixes and keep communication proportional to
// the trie size Q_Q rather than the batch's total key length.
package querytrie

import (
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/trie"
)

// QueryTrie is the batch's Patricia trie plus the bookkeeping that maps
// batch positions to trie nodes and back.
type QueryTrie struct {
	Trie *trie.Trie
	// Keys are the deduplicated batch keys in sorted order; Nodes[i] is
	// the locus node of Keys[i] (its Value is i).
	Keys  []bitstr.String
	Nodes []*trie.Node
	// Slot maps each original batch index to its entry in Keys.
	Slot []int
	// PreNodes and PreParent are the flattened preorder scaffolding
	// NodeHashes (re)builds: PreNodes[i] is the i-th compressed node in
	// preorder (PreNodes[i].Index == i), PreParent[i] the preorder index
	// of its parent (-1 for the root). Consumers that previously walked
	// the pointer trie per batch — the rootfix hash scan, the master
	// round's edge chunking — iterate these dense arrays instead, which
	// streams sequentially and admits lookahead loads.
	PreNodes  []*trie.Node
	PreParent []int32
}

// Build sorts and deduplicates the batch, computes adjacent LCPs
// implicitly, and generates the Patricia trie (Algorithm 1). It is the
// QTrieConstruct preprocessing run on the host for every batch. Every
// compressed node is assigned a dense preorder Index so per-node side
// data (NodeHashes) lives in flat slices.
func Build(batch []bitstr.String) *QueryTrie {
	n := len(batch)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Parallel radix arg-sort over the packed key words (the StringSort
	// step of Algorithm 1); stability is irrelevant because equal keys
	// collapse into one slot below.
	bitstr.ArgSort(batch, idx, parallel.MaxProcs())
	qt := &QueryTrie{Slot: make([]int, n)}
	var values []uint64
	for _, bi := range idx {
		k := batch[bi]
		if len(qt.Keys) == 0 || !bitstr.Equal(qt.Keys[len(qt.Keys)-1], k) {
			qt.Keys = append(qt.Keys, k)
			values = append(values, uint64(len(qt.Keys)-1))
		}
		qt.Slot[bi] = len(qt.Keys) - 1
	}
	qt.Trie, qt.Nodes = trie.BuildFromSorted(qt.Keys, values)
	var pre int32
	qt.Trie.WalkPreorder(func(nd *trie.Node) bool {
		nd.Index = pre
		pre++
		return true
	})
	return qt
}

// SizeWords returns Q_Q, the model size of the query trie.
func (q *QueryTrie) SizeWords() int { return q.Trie.SizeWords() }

// hashLookahead is how many preorder positions ahead the rootfix scan
// touches the next nodes' parent-edge label words. The scan itself is
// a tight dependent loop (child extends parent); the early loads give
// the memory system a head start on the label words ExtendRange will
// stream a few iterations later. See bitstr's prefetch notes for why
// a plain early load is the portable form of software prefetch.
const hashLookahead = 4

// hashSink defeats dead-load elimination for the lookahead touches;
// the guarded store is never taken in practice.
var hashSink uint64

const sinkSentinel = 0x9e3779b97f4a7c15

// buildPreorder (re)computes the flattened preorder scaffolding with an
// explicit stack — callers may have restructured the trie since Build
// (e.g. SplitLongEdges), so the build-time numbering cannot be trusted.
// Node.Index is reassigned to the fresh preorder position.
func (q *QueryTrie) buildPreorder() {
	nc := q.Trie.NodeCount()
	if cap(q.PreNodes) < nc {
		q.PreNodes = make([]*trie.Node, 0, nc)
		q.PreParent = make([]int32, 0, nc)
	}
	q.PreNodes, q.PreParent = q.PreNodes[:0], q.PreParent[:0]
	type frame struct {
		n   *trie.Node
		par int32
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{q.Trie.Root(), -1})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := int32(len(q.PreNodes))
		f.n.Index = idx
		q.PreNodes = append(q.PreNodes, f.n)
		q.PreParent = append(q.PreParent, f.par)
		// Push bit-1 first so bit-0 pops (and numbers) first.
		for b := 1; b >= 0; b-- {
			if e := f.n.Child[b]; e != nil {
				stack = append(stack, frame{e.To, idx})
			}
		}
	}
}

// NodeHashes computes the node hash (hash of the represented string) of
// every compressed node by a rootfix scan: each node extends its
// parent's value by its parent edge label (Lemma 4.9's sequential core).
// The result is indexed by Node.Index, freshly assigned in preorder by
// buildPreorder; the scan itself is one linear pass over the flattened
// PreNodes/PreParent arrays instead of a recursive pointer walk, with a
// lookahead touch of upcoming label words. buf, when large enough, is
// reused as the backing store so a caller processing batch after batch
// allocates nothing here. Values are bit-identical to the recursive
// rootfix: each node performs the same single ExtendRange of its
// parent's value.
func (q *QueryTrie) NodeHashes(h *hashing.Hasher, buf []hashing.Value) []hashing.Value {
	nc := q.Trie.NodeCount()
	if cap(buf) < nc {
		buf = make([]hashing.Value, nc)
	}
	out := buf[:nc]
	q.buildPreorder()
	out[0] = hashing.EmptyValue()
	sink := uint64(0)
	for i := 1; i < nc; i++ {
		if j := i + hashLookahead; j < nc {
			if w := q.PreNodes[j].ParentEdge.Label.RawWords(); len(w) > 0 {
				sink ^= w[0]
			}
		}
		e := q.PreNodes[i].ParentEdge
		out[i] = h.ExtendRange(out[q.PreParent[i]], e.Label, 0, e.Label.Len())
	}
	if sink == sinkSentinel {
		hashSink = sink
	}
	return out
}
