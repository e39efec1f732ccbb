package baseline

import (
	"sort"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// RangePart is the range-partitioned index of §3.2: the key space is
// divided by P-1 host-resident separators, each module holds a local
// compressed trie over its range. Point operations cost O(1) rounds and
// O(l/w) words, but a skewed batch aims everything at one module — the
// failure mode PIM-trie is designed to avoid.
type RangePart struct {
	sys        *pim.System
	separators []bitstr.String // separators[i] = smallest key of range i+1
	parts      []pim.Addr      // one rpPart per module
}

// rpPart is a module-local trie over one key range.
type rpPart struct {
	tr *trie.Trie
}

func (p *rpPart) SizeWords() int { return p.tr.SizeWords() + 1 }

// NewRangePart bulk-loads the structure, choosing separators that split
// the (sorted) initial keys evenly — the best case for range
// partitioning.
func NewRangePart(sys *pim.System, keys []bitstr.String, values []uint64) *RangePart {
	rp := &RangePart{sys: sys}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return bitstr.Compare(keys[idx[a]], keys[idx[b]]) < 0 })
	p := sys.P()
	per := (len(keys) + p - 1) / p
	tries := make([]*trie.Trie, p)
	for i := range tries {
		tries[i] = trie.New()
	}
	for rank, ki := range idx {
		if rank > 0 && bitstr.Equal(keys[idx[rank-1]], keys[ki]) {
			continue // duplicate keys must not straddle a partition boundary
		}
		part := rank / per
		if part >= p {
			part = p - 1
		}
		if rank > 0 && part > 0 && rank%per == 0 {
			rp.separators = append(rp.separators, keys[ki])
		}
		tries[part].Insert(keys[ki], values[ki])
	}
	for len(rp.separators) < p-1 {
		// Degenerate separators for empty tails keep routing total.
		last := bitstr.MustParse("1").PadTo(64, 1)
		rp.separators = append(rp.separators, last)
	}
	tasks := make([]pim.Task, p)
	for i := 0; i < p; i++ {
		obj := &rpPart{tr: tries[i]}
		tasks[i] = pim.Task{Module: i, SendWords: obj.SizeWords(), Run: func(m *pim.Module) pim.Resp {
			return pim.Resp{RecvWords: 1, Value: m.Alloc(obj)}
		}}
	}
	rp.parts = make([]pim.Addr, p)
	for i, r := range sys.Round(tasks) {
		rp.parts[i] = r.Value.(pim.Addr)
	}
	return rp
}

// route returns the partition index that owns key k.
func (rp *RangePart) route(k bitstr.String) int {
	// First separator greater than k bounds k's range.
	lo, hi := 0, len(rp.separators)
	for lo < hi {
		mid := (lo + hi) / 2
		if bitstr.Compare(rp.separators[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LCP answers a batch of longest-common-prefix queries. Each query goes
// to exactly one module — its own range — matching §3.2's constant
// communication. The probed module also reports whether the query's
// predecessor/successor could lie outside the range (query below the
// range minimum / above its maximum); only then does the host probe the
// neighbor, widening past empty ranges. Under any
// workload that hits stored ranges this stays one probe per query, so
// the skew measurements see the undiluted single-module hotspot.
func (rp *RangePart) LCP(batch []bitstr.String) []int {
	out := make([]int, len(batch))
	type probe struct {
		q    int // batch index
		part int
		dir  int // 0 first probe, -1 widen left, +1 widen right
	}
	pending := make([]probe, len(batch))
	parallel.For(len(batch), func(i int) {
		pending[i] = probe{q: i, part: rp.route(batch[i])}
	})
	for len(pending) > 0 {
		tasks := make([]pim.Task, len(pending))
		parallel.For(len(pending), func(k int) {
			pr := pending[k]
			q := batch[pr.q]
			addr := rp.parts[pr.part]
			tasks[k] = pim.Task{
				Module:    pr.part,
				SendWords: q.Words() + 1,
				Run: func(m *pim.Module) pim.Resp {
					p := m.Get(addr.ID).(*rpPart)
					l := p.tr.LCPLen(q)
					m.Work(q.Words() + 1)
					needL, needR := true, true
					if min, ok := p.tr.MinKey(); ok && bitstr.Compare(min, q) <= 0 {
						needL = false
					}
					if max, ok := p.tr.MaxKey(); ok && bitstr.Compare(max, q) >= 0 {
						needR = false
					}
					return pim.Resp{RecvWords: 2, Value: [3]int{l, b2i(needL), b2i(needR)}}
				},
			}
		})
		var next []probe
		for k, r := range rp.sys.Round(tasks) {
			pr := pending[k]
			v := r.Value.([3]int)
			if v[0] > out[pr.q] {
				out[pr.q] = v[0]
			}
			if (pr.dir <= 0) && v[1] == 1 && pr.part > 0 {
				next = append(next, probe{q: pr.q, part: pr.part - 1, dir: -1})
			}
			if (pr.dir == 0 || pr.dir > 0) && v[2] == 1 && pr.part < len(rp.parts)-1 {
				next = append(next, probe{q: pr.q, part: pr.part + 1, dir: +1})
			}
		}
		pending = next
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Insert routes each key to its range and inserts locally — one round,
// constant communication, but a skewed batch serializes on one module.
func (rp *RangePart) Insert(keys []bitstr.String, values []uint64) {
	// Routing (a binary search per key) fans out; grouping stays serial
	// so per-partition lists keep batch order.
	parts := make([]int, len(keys))
	parallel.For(len(keys), func(i int) { parts[i] = rp.route(keys[i]) })
	groups := map[int][]int{}
	for i := range keys {
		groups[parts[i]] = append(groups[parts[i]], i)
	}
	var tasks []pim.Task
	for part, idxs := range groups {
		part, idxs := part, idxs
		words := 0
		for _, i := range idxs {
			words += keys[i].Words() + 2
		}
		addr := rp.parts[part]
		tasks = append(tasks, pim.Task{
			Module:    part,
			SendWords: words,
			Run: func(m *pim.Module) pim.Resp {
				p := m.Get(addr.ID).(*rpPart)
				for _, i := range idxs {
					p.tr.Insert(keys[i], values[i])
					m.Work(keys[i].Words() + 1)
				}
				m.Resize(addr.ID)
				return pim.Resp{RecvWords: 1}
			},
		})
	}
	rp.sys.Round(tasks)
}

// SpaceWords sums module memory.
func (rp *RangePart) SpaceWords() int {
	total, _ := rp.sys.SpaceWords()
	return total
}
