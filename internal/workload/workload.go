// Package workload generates the deterministic, seeded key and query
// distributions used by the experiments: uniform random bit strings of
// fixed or variable length, adversarially skewed batches (deep shared
// prefixes, Zipfian repetition, single-range attacks), and synthetic
// corpora standing in for the real-world datasets a hardware evaluation
// would use (repro substitution: no proprietary traces are available, so
// every distribution is generated; the skew knobs reproduce the
// adversarial regimes the paper's theorems target).
package workload

import (
	"math/rand"
	"sort"
	"sync/atomic"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// Gen is a deterministic workload generator.
type Gen struct {
	r *rand.Rand
}

// New returns a generator with the given seed.
func New(seed int64) *Gen { return &Gen{r: rand.New(rand.NewSource(seed))} }

// FixedLen returns n uniformly random keys of exactly bits bits.
func (g *Gen) FixedLen(n, bits int) []bitstr.String {
	out := make([]bitstr.String, n)
	for i := range out {
		out[i] = g.randBits(bits)
	}
	return out
}

// VarLen returns n keys with lengths uniform in [minBits, maxBits].
func (g *Gen) VarLen(n, minBits, maxBits int) []bitstr.String {
	out := make([]bitstr.String, n)
	for i := range out {
		out[i] = g.randBits(minBits + g.r.Intn(maxBits-minBits+1))
	}
	return out
}

func (g *Gen) randBits(n int) bitstr.String {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = g.r.Uint64()
	}
	return bitstr.New(words, n)
}

// SharedPrefix returns n keys that all extend one random prefix of
// prefixBits bits with tails of tailBits bits — the worst-case data skew
// for radix structures (one deep spine).
func (g *Gen) SharedPrefix(n, prefixBits, tailBits int) []bitstr.String {
	prefix := g.randBits(prefixBits)
	out := make([]bitstr.String, n)
	for i := range out {
		out[i] = prefix.Concat(g.randBits(tailBits))
	}
	return out
}

// PrefixChain returns keys k_1 ⊏ k_2 ⊏ … ⊏ k_n, each extending the
// previous by stepBits — maximal trie depth per key count.
func (g *Gen) PrefixChain(n, stepBits int) []bitstr.String {
	out := make([]bitstr.String, n)
	cur := bitstr.Empty
	for i := range out {
		cur = cur.Concat(g.randBits(stepBits))
		out[i] = cur
	}
	return out
}

// Zipf returns n queries drawn from the given keys with Zipfian
// frequency of parameter s ≥ 1 (rank-1 dominates): classic query skew.
func (g *Gen) Zipf(keys []bitstr.String, n int, s float64) []bitstr.String {
	if len(keys) == 0 {
		return nil
	}
	z := rand.NewZipf(g.r, s, 1, uint64(len(keys)-1))
	perm := g.r.Perm(len(keys)) // decouple rank from insertion order
	out := make([]bitstr.String, n)
	for i := range out {
		out[i] = keys[perm[z.Uint64()]]
	}
	return out
}

// PointAttack returns n copies of a single stored key: the degenerate
// limit of query skew (every range-partitioned probe hits one module).
func (g *Gen) PointAttack(keys []bitstr.String, n int) []bitstr.String {
	k := keys[g.r.Intn(len(keys))]
	out := make([]bitstr.String, n)
	for i := range out {
		out[i] = k
	}
	return out
}

// RangeAttack returns n distinct queries packed into the narrow key
// interval around one stored key — defeats range partitioning while
// leaving every query unique.
func (g *Gen) RangeAttack(keys []bitstr.String, n, tailBits int) []bitstr.String {
	sorted := append([]bitstr.String(nil), keys...)
	sort.Slice(sorted, func(a, b int) bool { return bitstr.Compare(sorted[a], sorted[b]) < 0 })
	base := sorted[len(sorted)/2]
	out := make([]bitstr.String, n)
	for i := range out {
		out[i] = base.Concat(g.randBits(tailBits))
	}
	return out
}

// PrefixQueries derives n queries from stored keys: each query is a
// random-length prefix of a random key, optionally extended with noise
// bits, mixing exact hits, interior (hidden-node) hits and divergences.
func (g *Gen) PrefixQueries(keys []bitstr.String, n, noiseBits int) []bitstr.String {
	out := make([]bitstr.String, n)
	for i := range out {
		k := keys[g.r.Intn(len(keys))]
		cut := g.r.Intn(k.Len() + 1)
		q := k.Prefix(cut)
		if noiseBits > 0 && g.r.Intn(2) == 0 {
			q = q.Concat(g.randBits(g.r.Intn(noiseBits + 1)))
		}
		out[i] = q
	}
	return out
}

// Values returns n deterministic values.
func (g *Gen) Values(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.r.Uint64() >> 1
	}
	return out
}

// Uints returns n uniformly random integers of the given bit width, for
// the fixed-width x-fast baseline.
func (g *Gen) Uints(n, width int) []uint64 {
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<uint(width) - 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.r.Uint64() & mask
	}
	return out
}

// IPv4Prefixes synthesizes n routing-table-like entries: prefixes of
// length 8–32 bits with realistic length mix (most /16–/24), standing in
// for a public BGP snapshot (repro substitution).
func (g *Gen) IPv4Prefixes(n int) []bitstr.String {
	out := make([]bitstr.String, n)
	for i := range out {
		var plen int
		switch v := g.r.Float64(); {
		case v < 0.05:
			plen = 8 + g.r.Intn(8)
		case v < 0.25:
			plen = 16 + g.r.Intn(4)
		case v < 0.9:
			plen = 20 + g.r.Intn(5)
		default:
			plen = 25 + g.r.Intn(8)
		}
		out[i] = bitstr.FromUint64(uint64(g.r.Uint32())>>uint(32-plen), plen)
	}
	return out
}

// KeyStream draws stored keys one at a time: the per-client request
// stream of the serving benchmarks. With zipfS > 0 keys follow a
// Zipfian frequency over a rank permutation (exponents ≤ 1 are
// clamped to 1.01, the smallest rand.NewZipf accepts, so "Zipf(1.0)"
// requests the classic near-harmonic skew); with zipfS = 0 keys are
// uniform. The rank permutation is seeded independently of the draw
// seed, so hotness is a property of the key population: streams with
// different seeds draw independently but agree on which keys are hot,
// the way concurrent clients of one skewed store do. Streams with
// equal inputs replay identically.
type KeyStream struct {
	keys []bitstr.String
	perm []int
	r    *rand.Rand
	z    *rand.Zipf
}

// NewKeyStream builds a stream over keys. It panics if keys is empty.
func NewKeyStream(keys []bitstr.String, seed int64, zipfS float64) *KeyStream {
	if len(keys) == 0 {
		panic("workload: NewKeyStream with no keys")
	}
	r := rand.New(rand.NewSource(seed))
	ks := &KeyStream{keys: keys, r: r}
	if zipfS > 0 {
		if zipfS <= 1 {
			zipfS = 1.01
		}
		ks.z = rand.NewZipf(r, zipfS, 1, uint64(len(keys)-1))
		// Decouple rank from insertion order with a permutation all
		// streams over this population share regardless of their seed.
		ks.perm = rand.New(rand.NewSource(int64(len(keys)))).Perm(len(keys))
	}
	return ks
}

// Next returns the stream's next key.
func (ks *KeyStream) Next() bitstr.String {
	if ks.z == nil {
		return ks.keys[ks.r.Intn(len(ks.keys))]
	}
	return ks.keys[ks.perm[ks.z.Uint64()]]
}

// HotRangeStream draws stored keys with a shifting hot range: the key
// population is sorted lexicographically and split into `ranges`
// contiguous groups (each group is one prefix range of the key space),
// one of which is hot — each draw picks uniformly inside the hot group
// with probability hotFrac and uniformly over the whole population
// otherwise. With period > 0 the hot group rotates to the next one
// every period draws, the shifting-hotspot regime that exercises a
// sharding router's hot-range migration end-to-end; with period = 0
// the hotspot only moves when Shift is called.
//
// Next must be called from one goroutine, but Shift is safe to call
// concurrently (a benchmark driver shifts many clients'
// streams at once). Streams with equal inputs replay identically.
type HotRangeStream struct {
	sorted  []bitstr.String
	r       *rand.Rand
	ranges  int
	hotFrac float64
	period  int
	count   int
	hot     atomic.Int32
}

// NewHotRangeStream builds a stream over keys with the given number of
// contiguous ranges. It panics if keys is empty, ranges is not in
// [1, len(keys)], or hotFrac is outside [0, 1].
func NewHotRangeStream(keys []bitstr.String, seed int64, hotFrac float64, ranges, period int) *HotRangeStream {
	if len(keys) == 0 {
		panic("workload: NewHotRangeStream with no keys")
	}
	if ranges < 1 || ranges > len(keys) {
		panic("workload: NewHotRangeStream ranges out of [1, len(keys)]")
	}
	if hotFrac < 0 || hotFrac > 1 {
		panic("workload: NewHotRangeStream hotFrac outside [0, 1]")
	}
	sorted := append([]bitstr.String(nil), keys...)
	sort.Slice(sorted, func(a, b int) bool { return bitstr.Compare(sorted[a], sorted[b]) < 0 })
	return &HotRangeStream{
		sorted:  sorted,
		r:       rand.New(rand.NewSource(seed)),
		ranges:  ranges,
		hotFrac: hotFrac,
		period:  period,
	}
}

// rangeBounds returns the half-open index interval of group g.
func (hs *HotRangeStream) rangeBounds(g int) (lo, hi int) {
	n := len(hs.sorted)
	return g * n / hs.ranges, (g + 1) * n / hs.ranges
}

// Next returns the stream's next key, rotating the hotspot first when
// the period expires.
func (hs *HotRangeStream) Next() bitstr.String {
	if hs.period > 0 {
		hs.count++
		if hs.count%hs.period == 0 {
			hs.Shift()
		}
	}
	if hs.hotFrac > 0 && hs.r.Float64() < hs.hotFrac {
		lo, hi := hs.rangeBounds(int(hs.hot.Load()))
		if hi > lo {
			return hs.sorted[lo+hs.r.Intn(hi-lo)]
		}
	}
	return hs.sorted[hs.r.Intn(len(hs.sorted))]
}

// Shift rotates the hotspot to the next contiguous range.
func (hs *HotRangeStream) Shift() {
	for {
		cur := hs.hot.Load()
		next := (cur + 1) % int32(hs.ranges)
		if hs.hot.CompareAndSwap(cur, next) {
			return
		}
	}
}
