package shard

import (
	"math/rand"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// routeBits is the routing granularity: keys route by their first 8
// bits, into one of 256 slots (contiguous lexicographic prefix ranges,
// bitstr.PrefixIndex order).
const (
	routeBits = 8
	slots     = 1 << routeBits
)

// deal returns the initial slot -> shard table: the slots dealt to the
// shards round-robin in an order shuffled by seed, so every shard owns
// the same number of slots (±1) and the slots of one shard are
// scattered across the key space. Equal seeds give equal tables.
// Ownership afterwards is the router's live table, which migration
// rewrites.
func deal(seed int64, shards int) []int {
	table := make([]int, slots)
	for i, s := range rand.New(rand.NewSource(seed ^ 0x5a17)).Perm(slots) {
		table[s] = i % shards
	}
	return table
}

// slotKey returns the routeBits-bit key whose PrefixIndex is slot —
// the prefix identifying the slot's key range (every key in the slot
// extends it, except the replicated shorter keys).
func slotKey(slot int) bitstr.String {
	return bitstr.FromUint64(uint64(slot), routeBits)
}

// slotRange returns the half-open slot interval that keys extending
// prefix can land in: a single slot when the prefix is at least
// routeBits long, the whole subrange below the prefix otherwise.
func slotRange(prefix bitstr.String) (lo, hi int) {
	lo = prefix.PrefixIndex(routeBits)
	if prefix.Len() >= routeBits {
		return lo, lo + 1
	}
	return lo, lo + 1<<uint(routeBits-prefix.Len())
}
