package core

import "slices"

// metaTable is the flat open-addressing hash table holding the master
// table: the host's copy and every module's replica, which is a clone of
// it. The builtin map it replaces costs two dependent cache
// misses per probe (bucket header, then entry) and gives the prober no
// way to start the next batch's loads early; the flat table keeps every
// slot in one contiguous array, so (a) a probe is a single indexed
// access with linear fallback, and (b) Touch lets the grouped probe
// loop in probeSegments issue the bucket loads of a whole word of
// upcoming probes back-to-back, overlapping their DRAM misses
// (memory-level parallelism). Keys are hash outputs (already
// splitmix-mixed by hashing.Out), so the raw key masks directly to a
// slot index.
//
// Deletion uses backward-shift compaction (no tombstones), so lookup
// cost never degrades with churn. A replica is probed read-only during
// match rounds and mutated only in broadcast rounds — never both at
// once; the host's copy is read by parallel verifiers and mutated only
// between rounds.
//
// The table also keeps its depth bound: MaxLen, the largest Len any
// entry holds. A probe at depth d can only verify against an entry of
// Len d, so the master round stops hashing a query edge at MaxLen
// (probeSegments). The bound is exact at all times, not a high-water
// mark — byLen counts the entries of each Len, so a replace or a delete
// of the last deepest entry lowers it again and the index does not age
// (a stale bound would only cost work and shipped words, never answers).
// It is maintained by the same Put/Delete calls that maintain the table,
// so every way a replica is built or patched keeps it without shipping an
// extra word, and the host reads the bound it clamps the master round to
// in O(1).
type metaTable struct {
	slots  []metaSlot
	mask   uint64
	n      int
	byLen  []int // byLen[l] = entries whose Len is l
	maxLen int   // largest l with byLen[l] > 0; 0 when empty
}

type metaSlot struct {
	key  uint64
	used bool
	e    masterEntry
}

// newMetaTable sizes for at least capacity entries at ≤ 75% load.
func newMetaTable(capacity int) *metaTable {
	size := 8
	for size*3 < capacity*4 {
		size <<= 1
	}
	return &metaTable{slots: make([]metaSlot, size), mask: uint64(size - 1)}
}

func (t *metaTable) Len() int { return t.n }

// clone returns an independent copy (a module's replica of the host's).
func (t *metaTable) clone() *metaTable {
	c := *t
	c.slots, c.byLen = slices.Clone(t.slots), slices.Clone(t.byLen)
	return &c
}

// each calls fn for every entry, in slot order.
func (t *metaTable) each(fn func(h uint64, e masterEntry)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			fn(s.key, s.e)
		}
	}
}

// MaxLen returns the largest Len of any entry, 0 for an empty table.
func (t *metaTable) MaxLen() int { return t.maxLen }

// scanMaxLen recomputes MaxLen from the slots, for Validate.
func (t *metaTable) scanMaxLen() int {
	m := 0
	for i := range t.slots {
		if s := &t.slots[i]; s.used && s.e.Len > m {
			m = s.e.Len
		}
	}
	return m
}

func (t *metaTable) countLen(l int) {
	if l >= len(t.byLen) {
		t.byLen = append(t.byLen, make([]int, l+1-len(t.byLen))...)
	}
	t.byLen[l]++
	if l > t.maxLen {
		t.maxLen = l
	}
}

func (t *metaTable) uncountLen(l int) {
	t.byLen[l]--
	for t.maxLen > 0 && t.byLen[t.maxLen] == 0 {
		t.maxLen--
	}
}

// Get returns the entry stored under h.
func (t *metaTable) Get(h uint64) (masterEntry, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			return masterEntry{}, false
		}
		if s.key == h {
			return s.e, true
		}
	}
}

// Touch loads the home slot of h — the early, independent load the
// grouped probe loop issues for a whole window of probes before any
// Get. The returned word feeds a sink so the load cannot be
// dead-code-eliminated.
func (t *metaTable) Touch(h uint64) uint64 {
	return t.slots[h&t.mask].key
}

// Put stores e under h, replacing any existing entry.
func (t *metaTable) Put(h uint64, e masterEntry) {
	if uint64(t.n+1)*4 > uint64(len(t.slots))*3 {
		t.grow()
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			*s = metaSlot{key: h, used: true, e: e}
			t.n++
			t.countLen(e.Len)
			return
		}
		if s.key == h {
			if s.e.Len != e.Len {
				t.countLen(e.Len)
				t.uncountLen(s.e.Len)
			}
			s.e = e
			return
		}
	}
}

// Delete removes h if present, backward-shifting the probe chain so no
// tombstone is left behind.
func (t *metaTable) Delete(h uint64) {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return
		}
		if s.key == h {
			break
		}
		i = (i + 1) & t.mask
	}
	t.uncountLen(t.slots[i].e.Len)
	// Backward-shift: pull every displaced successor into the hole.
	j := i
	for {
		j = (j + 1) & t.mask
		s := &t.slots[j]
		if !s.used {
			break
		}
		home := s.key & t.mask
		// s may move into the hole i only if i lies cyclically within
		// [home, j); otherwise s is already at or past its home.
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = metaSlot{}
	t.n--
}

func (t *metaTable) grow() {
	old := t.slots
	t.slots = make([]metaSlot, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.n, t.maxLen = 0, 0
	clear(t.byLen)
	for i := range old {
		if old[i].used {
			t.Put(old[i].key, old[i].e)
		}
	}
}
