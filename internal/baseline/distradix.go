// Package baseline implements the comparison structures of Table 1 and
// §3, built from scratch on the same PIM simulator as PIM-trie so that
// rounds, communication and balance are measured identically:
//
//   - DistRadix — a compressed radix tree with span-s hops whose nodes
//     are placed on uniformly random modules and traversed by
//     level-by-level pointer chasing (Table 1 row 1): O(l/s) rounds and
//     O(l/s) words per operation, with contention on shared paths.
//   - DistXFast — an x-fast trie over fixed-width keys whose per-level
//     hash tables are sharded across modules (Table 1 row 2): O(log l)
//     rounds per batch, O(l) space per key.
//   - RangePart — a range-partitioned index (§3.2): O(1) rounds and
//     words per operation but catastrophic imbalance under skew.
package baseline

import (
	"sort"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// drNode is one distributed radix tree node: a compressed binary node
// whose edges are at most span bits long.
type drNode struct {
	hasValue bool
	value    uint64
	label    [2]bitstr.String // child edge labels (empty when absent)
	child    [2]pim.Addr
}

func (n *drNode) SizeWords() int {
	return 3 + n.label[0].Words() + n.label[1].Words()
}

// DistRadix is the "Distributed Radix Tree" baseline: the data trie's
// compressed nodes (edges cut to span bits) hashed uniformly onto
// modules; every query chases pointers from the root, one module hop per
// round.
type DistRadix struct {
	sys  *pim.System
	span int
	root pim.Addr
}

// NewDistRadix builds the structure over the given keys with the given
// span s (bits consumed per hop; the 2^s-fanout of a classic radix tree
// bounds s well below w).
func NewDistRadix(sys *pim.System, span int, keys []bitstr.String, values []uint64) *DistRadix {
	if span < 1 || span > 16 {
		panic("baseline: span out of range")
	}
	d := &DistRadix{sys: sys, span: span}
	defer sys.Phase("build")()
	full := trie.New()
	for i, k := range keys {
		full.Insert(k, values[i])
	}
	full.SplitLongEdges(span)
	// Allocate one module object per compressed node, then wire edges.
	var order []*trie.Node
	full.WalkPreorder(func(n *trie.Node) bool {
		order = append(order, n)
		return true
	})
	tasks := make([]pim.Task, len(order))
	objs := make([]*drNode, len(order))
	mods := make([]int, len(order))
	for i := range mods {
		mods[i] = sys.RandModule()
	}
	parallel.For(len(order), func(i int) {
		n := order[i]
		obj := &drNode{hasValue: n.HasValue, value: n.Value}
		for b := 0; b < 2; b++ {
			if e := n.Child[b]; e != nil {
				obj.label[b] = e.Label
			}
			obj.child[b] = pim.NilAddr
		}
		objs[i] = obj
		tasks[i] = pim.Task{
			Module:    mods[i],
			SendWords: obj.SizeWords(),
			Run: func(m *pim.Module) pim.Resp {
				return pim.Resp{RecvWords: 1, Value: m.Alloc(obj)}
			},
		}
	})
	addrOf := map[*trie.Node]pim.Addr{}
	for i, r := range d.sys.Round(tasks) {
		addrOf[order[i]] = r.Value.(pim.Addr)
	}
	wire := make([]pim.Task, 0, len(order))
	for i, n := range order {
		obj := objs[i]
		for b := 0; b < 2; b++ {
			if e := n.Child[b]; e != nil {
				obj.child[b] = addrOf[e.To]
			}
		}
		addr := addrOf[n]
		wire = append(wire, pim.Task{Module: addr.Module, SendWords: 2, Run: func(m *pim.Module) pim.Resp {
			return pim.Resp{}
		}})
	}
	d.sys.Round(wire)
	d.root = addrOf[full.Root()]
	return d
}

// drCursor tracks one in-flight query during pointer chasing.
type drCursor struct {
	at      pim.Addr
	pos     int // bits of the query matched so far
	done    bool
	matched int
}

// LCP answers a batch of longest-common-prefix queries by synchronized
// pointer chasing: one round per trie hop, each query probing the module
// that holds its current node. Shared prefixes hammer the same modules,
// which is exactly the imbalance the measurement should expose.
func (d *DistRadix) LCP(batch []bitstr.String) []int {
	defer d.sys.Phase("lcp")()
	cur := make([]drCursor, len(batch))
	for i := range cur {
		cur[i] = drCursor{at: d.root}
	}
	endChase := d.sys.Phase("pointer-chase")
	defer endChase()
	active := len(batch)
	for active > 0 {
		var idxs []int
		for i := range cur {
			if !cur[i].done {
				idxs = append(idxs, i)
			}
		}
		tasks := make([]pim.Task, len(idxs))
		parallel.For(len(idxs), func(k int) {
			i := idxs[k]
			c := cur[i]
			q := batch[i]
			tasks[k] = pim.Task{
				Module: c.at.Module,
				// Ship the next span bits of the query plus the cursor.
				SendWords: d.span/bitstr.WordBits + 2,
				Run: func(m *pim.Module) pim.Resp {
					n := m.Get(c.at.ID).(*drNode)
					m.Work(1)
					if c.pos == q.Len() {
						return pim.Resp{RecvWords: 1, Value: drCursor{done: true, matched: c.pos}}
					}
					b := q.BitAt(c.pos)
					if n.label[b].IsEmpty() {
						return pim.Resp{RecvWords: 1, Value: drCursor{done: true, matched: c.pos}}
					}
					rest := q.Suffix(c.pos)
					l := bitstr.LCP(n.label[b], rest)
					m.Work(l/bitstr.WordBits + 1)
					if l < n.label[b].Len() {
						return pim.Resp{RecvWords: 1, Value: drCursor{done: true, matched: c.pos + l}}
					}
					return pim.Resp{RecvWords: 2, Value: drCursor{at: n.child[b], pos: c.pos + l}}
				},
			}
		})
		for k, r := range d.sys.Round(tasks) {
			nc := r.Value.(drCursor)
			cur[idxs[k]] = nc
			if nc.done {
				active--
			}
		}
	}
	out := make([]int, len(batch))
	for i, c := range cur {
		out[i] = c.matched
	}
	return out
}

// Insert adds a batch of keys by pointer chasing to the divergence point
// and splicing new nodes there, O(l/s) rounds like queries. For
// simplicity each key is processed independently; conflicting splices at
// the same edge within one batch are serialized by re-descending.
func (d *DistRadix) Insert(keys []bitstr.String, values []uint64) {
	defer d.sys.Phase("insert")()
	for i, k := range keys {
		d.insertOne(k, values[i])
	}
}

// insertOne descends round by round and splices at the end. The descent
// matches LCP's round structure; batch-level parallelism across keys is
// deliberately absent (this baseline has no query trie), so rounds scale
// with the batch — one of the shapes the experiments report.
func (d *DistRadix) insertOne(k bitstr.String, v uint64) {
	at := d.root
	pos := 0
	for {
		res := d.sys.Round([]pim.Task{{
			Module:    at.Module,
			SendWords: d.span/bitstr.WordBits + 2,
			Run: func(m *pim.Module) pim.Resp {
				n := m.Get(at.ID).(*drNode)
				m.Work(1)
				if pos == k.Len() {
					n.hasValue = true
					n.value = v
					return pim.Resp{RecvWords: 1, Value: insDone{}}
				}
				b := k.BitAt(pos)
				if n.label[b].IsEmpty() {
					return pim.Resp{RecvWords: 1, Value: insAttach{}}
				}
				rest := k.Suffix(pos)
				l := bitstr.LCP(n.label[b], rest)
				m.Work(l/bitstr.WordBits + 1)
				if l < n.label[b].Len() {
					return pim.Resp{RecvWords: 2, Value: insSplit{off: l}}
				}
				return pim.Resp{RecvWords: 2, Value: insStep{next: n.child[b], pos: pos + l}}
			},
		}})
		switch r := res[0].Value.(type) {
		case insDone:
			return
		case insStep:
			at, pos = r.next, r.pos
		case insAttach:
			d.attachChain(at, k, pos, v)
			return
		case insSplit:
			d.splitAndAttach(at, k, pos, r.off, v)
			return
		}
	}
}

type insDone struct{}
type insStep struct {
	next pim.Addr
	pos  int
}
type insAttach struct{}
type insSplit struct{ off int }

// attachChain builds the remainder of k as a chain of span-bit nodes
// below the node at `at`.
func (d *DistRadix) attachChain(at pim.Addr, k bitstr.String, pos int, v uint64) {
	// Allocate the chain bottom-up on random modules, then link the top.
	type seg struct {
		label bitstr.String
	}
	var segs []seg
	for p := pos; p < k.Len(); p += d.span {
		end := p + d.span
		if end > k.Len() {
			end = k.Len()
		}
		segs = append(segs, seg{label: k.Slice(p, end)})
	}
	child := pim.NilAddr
	childIsLeaf := true
	for i := len(segs) - 1; i >= 0; i-- {
		node := &drNode{}
		if childIsLeaf && child.IsNil() {
			node.hasValue = true
			node.value = v
		}
		if !child.IsNil() {
			node.label[segs[i+1].label.FirstBit()] = segs[i+1].label
			node.child[segs[i+1].label.FirstBit()] = child
		}
		res := d.sys.Round([]pim.Task{{
			Module:    d.sys.RandModule(),
			SendWords: node.SizeWords(),
			Run: func(m *pim.Module) pim.Resp {
				return pim.Resp{RecvWords: 1, Value: m.Alloc(node)}
			},
		}})
		child = res[0].Value.(pim.Addr)
		childIsLeaf = false
	}
	top := segs[0].label
	d.sys.Round([]pim.Task{{
		Module:    at.Module,
		SendWords: top.Words() + 2,
		Run: func(m *pim.Module) pim.Resp {
			n := m.Get(at.ID).(*drNode)
			n.label[top.FirstBit()] = top
			n.child[top.FirstBit()] = child
			m.Resize(at.ID)
			return pim.Resp{}
		},
	}})
}

// splitAndAttach splits the edge below `at` at offset off and hangs the
// key remainder (possibly empty) off the new mid node.
func (d *DistRadix) splitAndAttach(at pim.Addr, k bitstr.String, pos, off int, v uint64) {
	// Fetch the edge info, build mid node, relink.
	res := d.sys.Round([]pim.Task{{
		Module:    at.Module,
		SendWords: 1,
		Run: func(m *pim.Module) pim.Resp {
			n := m.Get(at.ID).(*drNode)
			b := k.BitAt(pos)
			return pim.Resp{RecvWords: n.label[b].Words() + 2, Value: [2]any{n.label[b], n.child[b]}}
		},
	}})
	pair := res[0].Value.([2]any)
	label := pair[0].(bitstr.String)
	oldChild := pair[1].(pim.Addr)
	mid := &drNode{}
	lower := label.Suffix(off)
	mid.label[lower.FirstBit()] = lower
	mid.child[lower.FirstBit()] = oldChild
	remainder := k.Suffix(pos + off)
	if remainder.IsEmpty() {
		mid.hasValue = true
		mid.value = v
	}
	midRes := d.sys.Round([]pim.Task{{
		Module:    d.sys.RandModule(),
		SendWords: mid.SizeWords(),
		Run: func(m *pim.Module) pim.Resp {
			return pim.Resp{RecvWords: 1, Value: m.Alloc(mid)}
		},
	}})
	midAddr := midRes[0].Value.(pim.Addr)
	d.sys.Round([]pim.Task{{
		Module:    at.Module,
		SendWords: 2,
		Run: func(m *pim.Module) pim.Resp {
			n := m.Get(at.ID).(*drNode)
			b := label.FirstBit()
			n.label[b] = label.Prefix(off)
			n.child[b] = midAddr
			m.Resize(at.ID)
			return pim.Resp{}
		},
	}})
	if !remainder.IsEmpty() {
		d.attachChain(midAddr, k, pos+off, v)
	}
}

// Subtree returns every stored (key, value) extending prefix, by
// descending to the locus (O(l/s) rounds) and then BFS pointer chasing
// one node level per round — the O(n_D)-round worst case of Table 1.
func (d *DistRadix) Subtree(prefix bitstr.String) []trie.KV {
	defer d.sys.Phase("subtree")()
	// Descend to the locus, tracking the represented string of the node
	// entered (the locus node may lie below the prefix, mid-edge).
	type subStep struct {
		next pim.Addr
		pos  int
		lab  bitstr.String
	}
	endDescend := d.sys.Phase("descend")
	at, pos := d.root, 0
	path := bitstr.Empty
	for pos < prefix.Len() {
		res := d.sys.Round([]pim.Task{{
			Module:    at.Module,
			SendWords: d.span/bitstr.WordBits + 2,
			Run: func(m *pim.Module) pim.Resp {
				n := m.Get(at.ID).(*drNode)
				m.Work(1)
				b := prefix.BitAt(pos)
				if n.label[b].IsEmpty() {
					return pim.Resp{RecvWords: 1, Value: insDone{}}
				}
				rest := prefix.Suffix(pos)
				l := bitstr.LCP(n.label[b], rest)
				if l == rest.Len() || l == n.label[b].Len() {
					return pim.Resp{RecvWords: n.label[b].Words() + 2,
						Value: subStep{next: n.child[b], pos: pos + n.label[b].Len(), lab: n.label[b]}}
				}
				return pim.Resp{RecvWords: 1, Value: insDone{}}
			},
		}})
		switch r := res[0].Value.(type) {
		case insDone:
			endDescend()
			return nil
		case subStep:
			at, pos = r.next, r.pos
			path = path.Concat(r.lab)
			if pos > prefix.Len() && !path.HasPrefix(prefix) {
				endDescend()
				return nil // prefix diverged inside the final edge
			}
		}
	}
	endDescend()
	// BFS below the locus, one node level per round.
	endGather := d.sys.Phase("gather")
	defer endGather()
	type visit struct {
		addr pim.Addr
		path bitstr.String
	}
	level := []visit{{addr: at, path: path}}
	var out []trie.KV
	for len(level) > 0 {
		tasks := make([]pim.Task, len(level))
		for i, v := range level {
			v := v
			tasks[i] = pim.Task{
				Module:    v.addr.Module,
				SendWords: 1,
				Run: func(m *pim.Module) pim.Resp {
					n := m.Get(v.addr.ID).(*drNode)
					m.Work(1)
					return pim.Resp{RecvWords: n.SizeWords(), Value: n}
				},
			}
		}
		var next []visit
		for i, r := range d.sys.Round(tasks) {
			n := r.Value.(*drNode)
			if n.hasValue {
				out = append(out, trie.KV{Key: level[i].path, Value: n.value})
			}
			for b := 0; b < 2; b++ {
				if !n.label[b].IsEmpty() {
					next = append(next, visit{addr: n.child[b], path: level[i].path.Concat(n.label[b])})
				}
			}
		}
		level = next
	}
	sort.Slice(out, func(a, b int) bool { return bitstr.Compare(out[a].Key, out[b].Key) < 0 })
	return out
}

// SpaceWords sums the structure's module memory.
func (d *DistRadix) SpaceWords() int {
	total, _ := d.sys.SpaceWords()
	return total
}
