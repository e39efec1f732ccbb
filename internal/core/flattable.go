package core

import "slices"

// metaTable is the flat open-addressing hash table holding the master
// table: the host's copy and every module's replica. The builtin map it
// replaces costs two dependent cache misses per probe (bucket header,
// then entry) and gives the prober no way to start the next batch's
// loads early; the flat table keeps every slot in one contiguous array,
// so (a) a probe is a single indexed access with linear fallback, and
// (b) Touch lets the grouped probe loop in probeSegments issue the
// bucket loads of a whole word of upcoming probes back-to-back,
// overlapping their DRAM misses (memory-level parallelism). Keys are
// hash outputs (already splitmix-mixed by hashing.Out), so the raw key
// masks directly to a slot index.
//
// A slot is 16 pointer-free bytes: the key, its entry's Len and a used
// flag — everything the master round reads on a module. The host's
// table also keeps the full masterEntry of slot i in ents[i], which the
// host alone reads (it resolves every hit from its own copy); a replica
// has no ents, so its entry is its Len alone. Both are the same table,
// patched by the same Put and Delete.
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
	ents   []masterEntry // host only: the entry of slots[i]; nil in a replica
	mask   uint64
	n      int
	byLen  []int // byLen[l] = entries whose Len is l
	maxLen int   // largest l with byLen[l] > 0; 0 when empty
}

type metaSlot struct {
	key  uint64
	len  int32
	used bool
}

// newMetaTable returns a host table sized for at least capacity entries
// at ≤ 75% load.
func newMetaTable(capacity int) *metaTable {
	t := newReplica(capacity)
	t.ents = make([]masterEntry, len(t.slots))
	return t
}

// newReplica returns an empty replica sized like newMetaTable.
func newReplica(capacity int) *metaTable {
	size := 8
	for size*3 < capacity*4 {
		size <<= 1
	}
	return &metaTable{slots: make([]metaSlot, size), mask: uint64(size - 1)}
}

func (t *metaTable) Len() int { return t.n }

// replica returns an independent replica of t: its slots, without the
// entries.
func (t *metaTable) replica() *metaTable {
	c := *t
	c.slots, c.byLen, c.ents = slices.Clone(t.slots), slices.Clone(t.byLen), nil
	return &c
}

// entry returns the entry of used slot i; a replica's is its Len alone.
func (t *metaTable) entry(i uint64) masterEntry {
	if t.ents != nil {
		return t.ents[i]
	}
	return masterEntry{Len: int(t.slots[i].len)}
}

// each calls fn for every entry, in slot order.
func (t *metaTable) each(fn func(h uint64, e masterEntry)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			fn(s.key, t.entry(uint64(i)))
		}
	}
}

// MaxLen returns the largest Len of any entry, 0 for an empty table.
func (t *metaTable) MaxLen() int { return t.maxLen }

// scanMaxLen recomputes MaxLen from the slots, for Validate.
func (t *metaTable) scanMaxLen() int {
	m := 0
	for i := range t.slots {
		if s := &t.slots[i]; s.used && int(s.len) > m {
			m = int(s.len)
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

// slot returns the slot holding h, or the free slot that ends h's probe
// chain.
func (t *metaTable) slot(h uint64) (uint64, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			return i, false
		}
		if s.key == h {
			return i, true
		}
	}
}

// Get returns the entry stored under h (a replica's is its Len alone).
func (t *metaTable) Get(h uint64) (masterEntry, bool) {
	if i, ok := t.slot(h); ok {
		return t.entry(i), true
	}
	return masterEntry{}, false
}

// Touch loads the home slot of h — the early, independent load the
// grouped probe loop issues for a whole window of probes before any
// Get. The returned word feeds a sink so the load cannot be
// dead-code-eliminated.
func (t *metaTable) Touch(h uint64) uint64 {
	return t.slots[h&t.mask].key
}

// Put stores e under h, replacing any existing entry; a replica keeps
// e.Len alone.
func (t *metaTable) Put(h uint64, e masterEntry) {
	if uint64(t.n+1)*4 > uint64(len(t.slots))*3 {
		t.grow()
	}
	i, ok := t.slot(h)
	switch s := &t.slots[i]; {
	case !ok:
		*s = metaSlot{key: h, len: int32(e.Len), used: true}
		t.n++
		t.countLen(e.Len)
	case int(s.len) != e.Len:
		t.countLen(e.Len)
		t.uncountLen(int(s.len))
		s.len = int32(e.Len)
	}
	if t.ents != nil {
		t.ents[i] = e
	}
}

// Delete removes h if present, backward-shifting the probe chain so no
// tombstone is left behind.
func (t *metaTable) Delete(h uint64) {
	i, ok := t.slot(h)
	if !ok {
		return
	}
	t.uncountLen(int(t.slots[i].len))
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
			if t.ents != nil {
				t.ents[i] = t.ents[j]
			}
			i = j
		}
	}
	t.slots[i] = metaSlot{}
	if t.ents != nil {
		t.ents[i] = masterEntry{}
	}
	t.n--
}

func (t *metaTable) grow() {
	old := *t
	t.slots = make([]metaSlot, len(old.slots)*2)
	if old.ents != nil {
		t.ents = make([]masterEntry, len(t.slots))
	}
	t.mask = uint64(len(t.slots) - 1)
	t.n, t.maxLen = 0, 0
	clear(t.byLen)
	for i := range old.slots {
		if old.slots[i].used {
			t.Put(old.slots[i].key, old.entry(uint64(i)))
		}
	}
}
