package trie

import (
	"fmt"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// Flat is a read-only, cache-friendly snapshot of a Trie: every
// compressed node becomes one row of dense preorder-indexed arrays, and
// every edge label becomes an (offset, length) window into one shared
// label pool. Where the pointer trie chases Node → Edge → label-words
// across individually allocated objects — one dependent cache miss per
// hop — Flat keeps the child indexes of all nodes in a single
// contiguous array and all label bits in a single bitstr.String, so
// probes address memory by index and a batch of independent probes can
// be interleaved to overlap their misses (memory-level parallelism, cf.
// the Cuckoo Trie's MLP argument).
//
// A Flat is immutable and safe for concurrent use. It answers the
// read-side dictionary queries (Get, LCPLen, SubtreeKeys, WalkKeys)
// with exactly the Trie's results; mutations require re-flattening.
type Flat struct {
	// child[i] holds the preorder indexes of node i's children, -1 for
	// none; the slice of 2-arrays is one contiguous backing array.
	child [][2]int32
	// labelOff/labelLen window node i's parent-edge label within labels
	// (the root has length 0). Preorder means a node's label window
	// starts after its parent's, so a descent streams mostly forward.
	labelOff []int32
	labelLen []int32
	depth    []int32
	value    []uint64
	hasValue []bool
	labels   bitstr.String
	keys     int
}

// Flatten snapshots t. Nodes are numbered in preorder (root 0,
// bit-0 child subtree before bit-1), matching WalkPreorder order.
func Flatten(t *Trie) *Flat {
	n := t.NodeCount()
	f := &Flat{
		child:    make([][2]int32, 0, n),
		labelOff: make([]int32, 0, n),
		labelLen: make([]int32, 0, n),
		depth:    make([]int32, 0, n),
		value:    make([]uint64, 0, n),
		hasValue: make([]bool, 0, n),
		keys:     t.KeyCount(),
	}
	var pool bitstr.Builder
	var rec func(n *Node, labelOff, labelLen int) int32
	rec = func(nd *Node, labelOff, labelLen int) int32 {
		idx := int32(len(f.child))
		f.child = append(f.child, [2]int32{-1, -1})
		f.labelOff = append(f.labelOff, int32(labelOff))
		f.labelLen = append(f.labelLen, int32(labelLen))
		f.depth = append(f.depth, int32(nd.Depth))
		f.value = append(f.value, nd.Value)
		f.hasValue = append(f.hasValue, nd.HasValue)
		for b := 0; b < 2; b++ {
			if e := nd.Child[b]; e != nil {
				off := pool.Len()
				pool.Append(e.Label)
				f.child[idx][b] = rec(e.To, off, e.Label.Len())
			}
		}
		return idx
	}
	rec(t.Root(), 0, 0)
	f.labels = pool.String()
	return f
}

// KeyCount returns the number of stored pairs.
func (f *Flat) KeyCount() int { return f.keys }

// flatLanes is the interleaving width of the batch probes: that many
// independent key walks advance in lockstep, so up to flatLanes cache
// misses (child-row and label-word loads) are in flight at once
// instead of one. Eight covers the load buffers of current cores
// without spilling the lane state out of registers/L1.
const flatLanes = 8

// prefetchSink defeats dead-load elimination for the early label/child
// touches below; see bitstr's prefetch notes — the guarded store is
// never taken in practice, so concurrent probers do not race.
var prefetchSink uint64

const sinkSentinel = 0x9e3779b97f4a7c15

// step advances one lane's walk by a single edge once its child index
// is known. It returns the new (node, pos) and done:
//   - done with exact=true: pos == key length at a compressed node;
//   - done with exact=false: the walk diverged; matched bits = pos.
func (f *Flat) step(key bitstr.String, cur, pos, next int32) (ncur, npos int32, matched int32, exact, done bool) {
	ll := f.labelLen[next]
	n := int32(key.Len()) - pos
	if n > ll {
		n = ll
	}
	l := int32(bitstr.LCPRange(key, int(pos), f.labels, int(f.labelOff[next]), int(n)))
	if l < ll {
		// Diverged inside the edge (or the key ends at a hidden node).
		return cur, pos, pos + l, false, true
	}
	pos += ll
	if int(pos) == key.Len() {
		return next, pos, pos, true, true
	}
	return next, pos, pos, false, false
}

// GetBatch answers Get for every key: values[i], found[i] report key i.
// The walks run interleaved in groups of flatLanes: each round first
// issues the child-row and label-word loads of every live lane (the
// prefetch phase — all independent, so their misses overlap), then
// performs the label comparisons. Results are identical to calling
// Trie.Get per key on the snapshotted trie.
func (f *Flat) GetBatch(keys []bitstr.String, values []uint64, found []bool) {
	if len(values) != len(keys) || len(found) != len(keys) {
		panic("trie: GetBatch result slices sized wrong")
	}
	var cur, pos, next [flatLanes]int32
	sink := uint64(0)
	for g := 0; g < len(keys); g += flatLanes {
		m := len(keys) - g
		if m > flatLanes {
			m = flatLanes
		}
		live := uint32(1)<<uint(m) - 1
		for j := 0; j < m; j++ {
			cur[j], pos[j] = 0, 0
		}
		for live != 0 {
			// Phase 1: pick every live lane's next child and touch the
			// memory its comparison will need.
			for j := 0; j < m; j++ {
				if live&(1<<uint(j)) == 0 {
					continue
				}
				key := keys[g+j]
				if int(pos[j]) == key.Len() {
					values[g+j], found[g+j] = f.value[cur[j]], f.hasValue[cur[j]]
					live &^= 1 << uint(j)
					continue
				}
				c := f.child[cur[j]][key.BitAt(int(pos[j]))]
				next[j] = c
				if c < 0 {
					values[g+j], found[g+j] = 0, false
					live &^= 1 << uint(j)
					continue
				}
				// Early loads: the child's label window start and its
				// child row, needed in phase 2 / the next round.
				if ll := f.labelLen[c]; ll > 0 {
					off := int(f.labelOff[c])
					end := off + 64
					if int(ll) < 64 {
						end = off + int(ll)
					}
					sink ^= f.labels.RangeWord(off, end)
				}
				sink ^= uint64(f.child[c][0])
			}
			// Phase 2: compare labels and advance.
			for j := 0; j < m; j++ {
				if live&(1<<uint(j)) == 0 {
					continue
				}
				nc, np, _, exact, done := f.step(keys[g+j], cur[j], pos[j], next[j])
				cur[j], pos[j] = nc, np
				if done {
					if exact {
						values[g+j], found[g+j] = f.value[nc], f.hasValue[nc]
					} else {
						values[g+j], found[g+j] = 0, false
					}
					live &^= 1 << uint(j)
				}
			}
		}
	}
	if sink == sinkSentinel {
		prefetchSink = sink
	}
}

// Get answers a single exact lookup.
func (f *Flat) Get(key bitstr.String) (uint64, bool) {
	var v [1]uint64
	var ok [1]bool
	f.GetBatch([]bitstr.String{key}, v[:], ok[:])
	return v[0], ok[0]
}

// LCPLen answers a single longest-common-prefix query: the length, in
// bits, of the longest common prefix between key and any stored prefix
// (compressed or hidden).
func (f *Flat) LCPLen(key bitstr.String) int {
	cur, pos := int32(0), int32(0)
	for int(pos) < key.Len() {
		c := f.child[cur][key.BitAt(int(pos))]
		if c < 0 {
			break
		}
		var matched int32
		var done bool
		cur, pos, matched, _, done = f.step(key, cur, pos, c)
		if done {
			return int(matched)
		}
	}
	return int(pos)
}

// WalkKeys visits every stored pair in lexicographic key order,
// reconstructing each key incrementally from the label pool — O(total
// label bits) overall, where the pointer trie's SubtreeKeys pays a
// Concat chain per root-to-node path.
func (f *Flat) WalkKeys(fn func(key bitstr.String, value uint64)) {
	var b bitstr.Builder
	f.walkKeysFrom(0, &b, fn)
}

func (f *Flat) walkKeysFrom(idx int32, b *bitstr.Builder, fn func(bitstr.String, uint64)) {
	if f.hasValue[idx] {
		fn(b.String(), f.value[idx])
	}
	for bit := 0; bit < 2; bit++ {
		c := f.child[idx][bit]
		if c < 0 {
			continue
		}
		mark := b.Len()
		b.AppendRange(f.labels, int(f.labelOff[c]), int(f.labelOff[c])+int(f.labelLen[c]))
		f.walkKeysFrom(c, b, fn)
		b.Truncate(mark)
	}
}

// Keys returns all stored pairs in lexicographic key order.
func (f *Flat) Keys() []KV {
	out := make([]KV, 0, f.keys)
	f.WalkKeys(func(k bitstr.String, v uint64) { out = append(out, KV{Key: k, Value: v}) })
	return out
}

// SubtreeKeys returns, in order, every stored pair whose key has the
// given prefix — Trie.SubtreeKeys on the snapshot.
func (f *Flat) SubtreeKeys(prefix bitstr.String) []KV {
	// Locate the prefix with a single-lane walk.
	cur, pos := int32(0), int32(0)
	for {
		if int(pos) == prefix.Len() {
			break
		}
		c := f.child[cur][prefix.BitAt(int(pos))]
		if c < 0 {
			return nil
		}
		ll := f.labelLen[c]
		n := int32(prefix.Len()) - pos
		if n > ll {
			n = ll
		}
		l := int32(bitstr.LCPRange(prefix, int(pos), f.labels, int(f.labelOff[c]), int(n)))
		if l < n {
			return nil // diverged inside the edge
		}
		if l < ll {
			// Prefix ends on a hidden node inside c's edge: everything
			// below c qualifies, with the unmatched label tail appended.
			var b bitstr.Builder
			b.Append(prefix)
			b.AppendRange(f.labels, int(f.labelOff[c])+int(l), int(f.labelOff[c])+int(ll))
			var out []KV
			f.walkKeysFrom(c, &b, func(k bitstr.String, v uint64) { out = append(out, KV{Key: k, Value: v}) })
			return out
		}
		pos += ll
		cur = c
	}
	var b bitstr.Builder
	b.Append(prefix)
	var out []KV
	f.walkKeysFrom(cur, &b, func(k bitstr.String, v uint64) { out = append(out, KV{Key: k, Value: v}) })
	return out
}

// CheckAgainst verifies that f is a faithful snapshot of t (tests).
func (f *Flat) CheckAgainst(t *Trie) error {
	if len(f.child) != t.NodeCount() || f.KeyCount() != t.KeyCount() {
		return fmt.Errorf("trie: flat has %d nodes/%d keys, trie %d/%d",
			len(f.child), f.KeyCount(), t.NodeCount(), t.KeyCount())
	}
	i := 0
	var err error
	t.WalkPreorder(func(n *Node) bool {
		if err != nil {
			return false
		}
		if f.hasValue[i] != n.HasValue || (n.HasValue && f.value[i] != n.Value) || int(f.depth[i]) != n.Depth {
			err = fmt.Errorf("trie: flat row %d disagrees with preorder node (depth %d)", i, n.Depth)
			return false
		}
		if e := n.ParentEdge; e != nil {
			if int(f.labelLen[i]) != e.Label.Len() ||
				!bitstr.EqualRange(f.labels, int(f.labelOff[i]), e.Label, 0, e.Label.Len()) {
				err = fmt.Errorf("trie: flat row %d label disagrees", i)
				return false
			}
		}
		i++
		return true
	})
	return err
}
