// Benchmarks regenerating the paper's evaluation artifacts (one per
// table/figure; DESIGN.md §3 maps IDs to paper artifacts). Each
// Table1/Figure benchmark drives the corresponding experiment sweep; the
// Op benchmarks measure wall-clock and PIM Model cost per operation
// through the public API and report the model metrics the paper's
// theorems bound (rounds/batch, words/op, balance) via ReportMetric.
//
// Run everything:  go test -bench=. -benchmem
// One table:       go test -bench=BenchmarkTable1RoundsLCP
package pimtrie

import (
	"fmt"
	"testing"

	"github.com/pimlab/pimtrie/internal/baseline"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/experiments"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// benchScale keeps full-suite time reasonable; cmd/pimbench runs the
// larger DefaultScale.
var benchScale = experiments.Scale{P: 16, N: 4000, Batch: 512, Seed: 1}

// --- Table 1 and figure reproductions (experiment sweeps) -------------

func BenchmarkTable1Space(b *testing.B) { // E1
	for i := 0; i < b.N; i++ {
		experiments.SpaceTable(benchScale)
	}
}

func BenchmarkTable1RoundsLCP(b *testing.B) { // E2
	for i := 0; i < b.N; i++ {
		experiments.RoundsLCP(benchScale)
	}
}

func BenchmarkRoundsVsP(b *testing.B) { // E2b
	for i := 0; i < b.N; i++ {
		experiments.RoundsVsP(benchScale)
	}
}

func BenchmarkTable1RoundsUpdate(b *testing.B) { // E3
	for i := 0; i < b.N; i++ {
		experiments.RoundsUpdate(benchScale)
	}
}

func BenchmarkTable1RoundsSubtree(b *testing.B) { // E4
	for i := 0; i < b.N; i++ {
		experiments.RoundsSubtree(benchScale)
	}
}

func BenchmarkTable1CommPerOp(b *testing.B) { // E5
	for i := 0; i < b.N; i++ {
		experiments.CommPerOp(benchScale)
	}
}

func BenchmarkRegionProbeByKeyLength(b *testing.B) { // E5b
	for i := 0; i < b.N; i++ {
		experiments.RegionProbeByKeyLength(benchScale)
	}
}

func BenchmarkTable1CommSubtree(b *testing.B) { // E6
	for i := 0; i < b.N; i++ {
		experiments.CommSubtree(benchScale)
	}
}

func BenchmarkSkewBalance(b *testing.B) { // E7
	for i := 0; i < b.N; i++ {
		experiments.SkewBalance(benchScale)
	}
}

func BenchmarkSkewedDataBalance(b *testing.B) { // E7b
	for i := 0; i < b.N; i++ {
		experiments.SkewedDataBalance(benchScale)
	}
}

func BenchmarkTheoremBounds(b *testing.B) { // E8
	for i := 0; i < b.N; i++ {
		experiments.TheoremBounds(benchScale)
	}
}

func BenchmarkAblationBlockSize(b *testing.B) { // E9a
	for i := 0; i < b.N; i++ {
		experiments.AblationBlockSize(benchScale)
	}
}

func BenchmarkAblationPushPull(b *testing.B) { // E9b
	for i := 0; i < b.N; i++ {
		experiments.AblationPushPull(benchScale)
	}
}

func BenchmarkAblationHashWidth(b *testing.B) { // E9c
	for i := 0; i < b.N; i++ {
		experiments.AblationHashWidth(benchScale)
	}
}

func BenchmarkAblationRegionSize(b *testing.B) { // E9d
	for i := 0; i < b.N; i++ {
		experiments.AblationRegionSize(benchScale)
	}
}

// --- per-operation benchmarks over the public API ---------------------

func loadedIndex(b *testing.B, p, n int) (*Index, []Key) {
	b.Helper()
	g := workload.New(1)
	keys := g.VarLen(n, 48, 192)
	idx := New(p, Options{Seed: 1})
	idx.Load(keys, g.Values(len(keys)))
	return idx, keys
}

func reportModel(b *testing.B, idx *Index, before Metrics, batches int, ops int) {
	d := idx.Metrics().Sub(before)
	b.ReportMetric(float64(d.Rounds)/float64(batches), "rounds/batch")
	b.ReportMetric(float64(d.IOWords)/float64(ops), "words/op")
	b.ReportMetric(d.IOBalance(), "balance")
	b.ReportMetric(float64(d.PIMWork)/float64(ops), "pimwork/op")
}

func BenchmarkOpLCPBatch(b *testing.B) {
	idx, keys := loadedIndex(b, 16, 8000)
	g := workload.New(2)
	queries := g.PrefixQueries(keys, 1024, 16)
	b.ResetTimer()
	before := idx.Metrics()
	for i := 0; i < b.N; i++ {
		idx.LCP(queries)
	}
	reportModel(b, idx, before, b.N, b.N*len(queries))
}

// BenchmarkOpLCPDeepPrefix is the unfavourable side of the depth bound
// HashMatching stops at: every key shares a 512-bit prefix, block roots
// sit ≥ 512 bits deep, and the queries are prefixes of stored keys, so
// there is no fresh-key tail below the roots to skip
// (BenchmarkOpInsertDeleteBatch, fresh 128-bit keys over shallow roots,
// is the favourable side).
func BenchmarkOpLCPDeepPrefix(b *testing.B) {
	g := workload.New(10)
	keys := g.SharedPrefix(2000, 512, 128)
	idx := New(16, Options{Seed: 10})
	idx.Load(keys, g.Values(len(keys)))
	queries := g.PrefixQueries(keys, 1024, 16)
	b.ResetTimer()
	before := idx.Metrics()
	for i := 0; i < b.N; i++ {
		idx.LCP(queries)
	}
	reportModel(b, idx, before, b.N, b.N*len(queries))
}

// BenchmarkOpLCPLongKeys is the side of HashMatching the pivot classes
// serve: 1 024-bit keys put region depth bounds hundreds of bits below a
// probe's start, so region windows run words past their start word and
// take one pivot class per word instead of one probe per bit.
func BenchmarkOpLCPLongKeys(b *testing.B) {
	g := workload.New(11)
	keys := g.FixedLen(5000, 1024)
	idx := New(16, Options{Seed: 11})
	idx.Load(keys, g.Values(len(keys)))
	queries := g.PrefixQueries(keys, 1024, 16)
	b.ResetTimer()
	before := idx.Metrics()
	for i := 0; i < b.N; i++ {
		idx.LCP(queries)
	}
	reportModel(b, idx, before, b.N, b.N*len(queries))
}

func BenchmarkOpGetBatch(b *testing.B) {
	idx, keys := loadedIndex(b, 16, 8000)
	g := workload.New(3)
	queries := g.Zipf(keys, 1024, 1.2)
	b.ResetTimer()
	before := idx.Metrics()
	for i := 0; i < b.N; i++ {
		idx.Get(queries)
	}
	reportModel(b, idx, before, b.N, b.N*len(queries))
}

func BenchmarkOpInsertDeleteBatch(b *testing.B) {
	idx, _ := loadedIndex(b, 16, 8000)
	g := workload.New(4)
	fresh := g.FixedLen(512, 128)
	values := g.Values(len(fresh))
	b.ResetTimer()
	before := idx.Metrics()
	for i := 0; i < b.N; i++ {
		idx.Insert(fresh, values)
		idx.Delete(fresh)
	}
	reportModel(b, idx, before, b.N, 2*b.N*len(fresh))
}

func BenchmarkOpSubtree(b *testing.B) {
	g := workload.New(5)
	keys := g.SharedPrefix(2000, 24, 96)
	idx := New(16, Options{Seed: 5})
	idx.Load(keys, g.Values(len(keys)))
	prefix := keys[0].Prefix(24)
	b.ResetTimer()
	before := idx.Metrics()
	for i := 0; i < b.N; i++ {
		idx.Subtree(prefix)
	}
	reportModel(b, idx, before, b.N, b.N)
}

// oneKeyGets times one-key Gets, 1 000 per b.N iteration so a
// -benchtime=1x smoke run still measures something. With largeFirst the
// index first serves one 4096-key LCP+Get+Insert+Delete cycle: a batch
// must cost O(its own size), so the two variants should report the same
// ns/op (internal/core's TestSmallBatchCostIgnoresHistory gates the
// ratio).
func oneKeyGets(b *testing.B, largeFirst bool) {
	idx, keys := loadedIndex(b, 32, 20000)
	g := workload.New(12)
	if largeFirst {
		idx.LCP(g.PrefixQueries(keys, 4096, 16))
		idx.Get(g.Zipf(keys, 4096, 1.2))
		fresh := g.FixedLen(4096, 128)
		idx.Insert(fresh, g.Values(len(fresh)))
		idx.Delete(fresh)
	}
	queries := g.Zipf(keys, 1000, 1.2)
	b.ResetTimer()
	before := idx.Metrics()
	for i := 0; i < b.N; i++ {
		for j := range queries {
			idx.Get(queries[j : j+1])
		}
	}
	reportModel(b, idx, before, b.N*len(queries), b.N*len(queries))
}

func BenchmarkOpOneKeyGetFresh(b *testing.B)           { oneKeyGets(b, false) }
func BenchmarkOpOneKeyGetAfterLargeBatch(b *testing.B) { oneKeyGets(b, true) }

func BenchmarkOpBulkLoad(b *testing.B) {
	g := workload.New(6)
	keys := g.VarLen(8000, 48, 192)
	values := g.Values(len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := New(16, Options{Seed: int64(i)})
		idx.Load(keys, values)
	}
}

// --- baseline per-op benchmarks (wall clock comparison) ---------------

func BenchmarkBaselineDistRadixLCP(b *testing.B) {
	g := workload.New(7)
	keys := g.FixedLen(4000, 128)
	sys := pim.NewSystem(16, pim.WithSeed(7))
	d := baseline.NewDistRadix(sys, 8, keys, g.Values(len(keys)))
	queries := g.PrefixQueries(keys, 512, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.LCP(queries)
	}
	m := sys.Metrics()
	b.ReportMetric(float64(m.Rounds)/float64(b.N), "rounds/batch")
}

func BenchmarkBaselineRangePartLCP(b *testing.B) {
	g := workload.New(8)
	keys := g.FixedLen(4000, 128)
	sys := pim.NewSystem(16, pim.WithSeed(8))
	rp := baseline.NewRangePart(sys, keys, g.Values(len(keys)))
	queries := g.PrefixQueries(keys, 512, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.LCP(queries)
	}
}

func BenchmarkBaselineDistXFastLPL(b *testing.B) {
	g := workload.New(9)
	ints := g.Uints(4000, 64)
	sys := pim.NewSystem(16, pim.WithSeed(9))
	xf := baseline.NewDistXFast(sys, 64, ints, g.Values(len(ints)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xf.LongestPrefixLevel(ints[:512])
	}
}

// --- host-probe microbenchmarks: flat layout vs pointer chasing -------
//
// The shadow-trie probe is host work on every Get/recovery path; these
// benchmarks isolate the memory-level-parallelism win of the flattened
// snapshot (trie.Flat): dense arrays probed in interleaved lanes versus
// the one-dependent-load-per-node pointer walk. Run both to compare:
//
//	go test -bench 'HostProbe' -benchtime 2s

func hostProbeFixtures(b *testing.B, n int) (*trie.Trie, *trie.Flat, []bitstr.String) {
	b.Helper()
	g := workload.New(11)
	keys := g.VarLen(n, 48, 160)
	tr := trie.New()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	misses := g.FixedLen(len(keys)/8, 96)
	stream := workload.NewKeyStream(keys, 7, 0)
	queries := make([]bitstr.String, 1<<16)
	for i := range queries {
		if i%8 == 7 {
			queries[i] = misses[i/8%len(misses)]
		} else {
			queries[i] = stream.Next()
		}
	}
	return tr, trie.Flatten(tr), queries
}

var hostProbeSink uint64

func BenchmarkHostProbePointer(b *testing.B) {
	tr, _, queries := hostProbeFixtures(b, 100_000)
	for _, bs := range []int{8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch-%d", bs), func(b *testing.B) {
			off := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries[off : off+bs] {
					if v, ok := tr.Get(q); ok {
						hostProbeSink += v
					}
				}
				off = (off + bs) % (len(queries) - bs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs), "ns/key")
		})
	}
}

func BenchmarkHostProbeFlat(b *testing.B) {
	_, flat, queries := hostProbeFixtures(b, 100_000)
	for _, bs := range []int{8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch-%d", bs), func(b *testing.B) {
			vals := make([]uint64, bs)
			found := make([]bool, bs)
			off := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flat.GetBatch(queries[off:off+bs], vals, found)
				hostProbeSink += vals[0]
				off = (off + bs) % (len(queries) - bs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs), "ns/key")
		})
	}
}
