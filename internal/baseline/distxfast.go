package baseline

import (
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/pim"
)

// DistXFast is the "Distributed x-fast trie" baseline (Table 1 row 2,
// §3.4): per-level prefix tables sharded across modules by hashing
// (level, prefix). It supports only fixed-width keys of Width ≤ 64 bits,
// takes O(l) words per key, and answers longest-prefix queries with a
// binary search over levels — O(log l) rounds per batch, every probe a
// message to the owning module.
type DistXFast struct {
	sys    *pim.System
	width  int
	h      *hashing.Hasher
	shards []pim.Addr // one table object per module
}

// xfShard is the per-module piece of the level tables: refcounted prefix
// presence plus leaf values.
type xfShard struct {
	ref    map[xfKey]int
	values map[uint64]uint64
}

type xfKey struct {
	level  int
	prefix uint64
}

func (s *xfShard) SizeWords() int { return len(s.ref)*2 + len(s.values)*2 + 1 }

// NewDistXFast creates the structure and bulk-inserts the given keys.
func NewDistXFast(sys *pim.System, width int, keys []uint64, values []uint64) *DistXFast {
	if width < 1 || width > 64 {
		panic("baseline: width out of range")
	}
	d := &DistXFast{sys: sys, width: width, h: hashing.New(0xDF, 0)}
	resp := sys.Broadcast(1, func(m *pim.Module) pim.Resp {
		return pim.Resp{RecvWords: 1, Value: m.Alloc(&xfShard{ref: map[xfKey]int{}, values: map[uint64]uint64{}})}
	})
	d.shards = make([]pim.Addr, sys.P())
	for i, r := range resp {
		d.shards[i] = r.Value.(pim.Addr)
	}
	d.Insert(keys, values)
	return d
}

// owner maps a (level, prefix) pair to its module.
func (d *DistXFast) owner(level int, prefix uint64) int {
	v := d.h.Hash(bitstr.FromUint64(prefix, 64).Concat(bitstr.FromUint64(uint64(level), 16)))
	return int(d.h.Out(v) % uint64(d.sys.P()))
}

func (d *DistXFast) prefix(x uint64, level int) uint64 {
	if level == 0 {
		return 0
	}
	return x >> uint(d.width-level)
}

// Member reports presence for a batch of keys in one round.
func (d *DistXFast) Member(batch []uint64) []bool {
	out := make([]bool, len(batch))
	tasks := make([]pim.Task, len(batch))
	for i, x := range batch {
		x := x
		mod := d.owner(d.width, x)
		shard := d.shards[mod]
		tasks[i] = pim.Task{Module: mod, SendWords: 2, Run: func(m *pim.Module) pim.Resp {
			s := m.Get(shard.ID).(*xfShard)
			m.Work(1)
			_, ok := s.values[x]
			return pim.Resp{RecvWords: 1, Value: ok}
		}}
	}
	for i, r := range d.sys.Round(tasks) {
		out[i] = r.Value.(bool)
	}
	return out
}

// LongestPrefixLevel answers, for each key, the largest level whose
// prefix is present — the x-fast analogue of an LCP query, clipped to
// the fixed width. The whole batch advances one binary-search step per
// round: O(log width) rounds total.
func (d *DistXFast) LongestPrefixLevel(batch []uint64) []int {
	lo := make([]int, len(batch))
	hi := make([]int, len(batch))
	for i := range batch {
		hi[i] = d.width
	}
	for {
		var tasks []pim.Task
		var idxs []int
		for i := range batch {
			if lo[i] >= hi[i] {
				continue
			}
			mid := (lo[i] + hi[i] + 1) / 2
			x := d.prefix(batch[i], mid)
			mod := d.owner(mid, x)
			shard := d.shards[mod]
			key := xfKey{level: mid, prefix: x}
			tasks = append(tasks, pim.Task{Module: mod, SendWords: 2, Run: func(m *pim.Module) pim.Resp {
				s := m.Get(shard.ID).(*xfShard)
				m.Work(1)
				return pim.Resp{RecvWords: 1, Value: s.ref[key] > 0}
			}})
			idxs = append(idxs, i)
		}
		if len(tasks) == 0 {
			break
		}
		for k, r := range d.sys.Round(tasks) {
			i := idxs[k]
			mid := (lo[i] + hi[i] + 1) / 2
			if r.Value.(bool) {
				lo[i] = mid
			} else {
				hi[i] = mid - 1
			}
		}
	}
	return lo
}

// Insert stores a batch of keys: every key writes all `width` prefix
// entries (O(l) words per key) in a single parallel round after a
// membership round for refcount correctness.
func (d *DistXFast) Insert(keys []uint64, values []uint64) {
	member := d.Member(keys)
	seen := map[uint64]bool{}
	var tasks []pim.Task
	for i, x := range keys {
		if member[i] || seen[x] {
			// Value update only.
			x, v := x, values[i]
			mod := d.owner(d.width, x)
			shard := d.shards[mod]
			tasks = append(tasks, pim.Task{Module: mod, SendWords: 2, Run: func(m *pim.Module) pim.Resp {
				m.Get(shard.ID).(*xfShard).values[x] = v
				return pim.Resp{}
			}})
			continue
		}
		seen[x] = true
		for level := 0; level <= d.width; level++ {
			level := level
			p := d.prefix(x, level)
			mod := d.owner(level, p)
			shard := d.shards[mod]
			x, v := x, values[i]
			last := level == d.width
			tasks = append(tasks, pim.Task{Module: mod, SendWords: 2, Run: func(m *pim.Module) pim.Resp {
				s := m.Get(shard.ID).(*xfShard)
				s.ref[xfKey{level: level, prefix: p}]++
				if last {
					s.values[x] = v
				}
				m.Work(1)
				m.Resize(shard.ID)
				return pim.Resp{}
			}})
		}
	}
	d.sys.Round(tasks)
}

// SpaceWords sums module memory.
func (d *DistXFast) SpaceWords() int {
	total, _ := d.sys.SpaceWords()
	return total
}
