package core

// A batch costs O(its own size), not O(the largest batch the index has
// ever served: DESIGN.md §9). The model metrics never broke that rule;
// wall-clock did when the per-batch scratch lived in Go maps, whose
// clear() costs their capacity.

import (
	"testing"

	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/workload"
)

// TestSmallBatchCostIgnoresHistory times one-key Gets on a fresh index
// and again after one cycle of 4096-key batches (the root package's
// BenchmarkOpOneKeyGetFresh / AfterLargeBatch pair on one index). The
// ratio was ≈ 4 with map scratch.
func TestSmallBatchCostIgnoresHistory(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock ratio: not meaningful under -short or -race")
	}
	g := workload.New(1)
	keys := g.VarLen(20000, 48, 192)
	sys := pim.NewSystem(32, pim.WithSeed(1))
	defer sys.Close()
	pt := New(sys, Config{})
	pt.Build(keys, g.Values(len(keys)))
	queries := g.Zipf(keys, 1000, 1.2)
	oneKeyGets := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range queries {
				pt.Get(queries[j : j+1])
			}
		}
	}
	perGet := func() float64 {
		return float64(testing.Benchmark(oneKeyGets).NsPerOp()) / float64(len(queries))
	}
	fresh := perGet()
	pt.LCP(g.PrefixQueries(keys, 4096, 16))
	pt.Get(g.Zipf(keys, 4096, 1.2))
	big := g.FixedLen(4096, 128)
	pt.Insert(big, g.Values(len(big)))
	pt.Delete(big)
	after := perGet()
	t.Logf("one-key Get: %.1f µs fresh, %.1f µs after a 4096-key cycle (ratio %.2f)", fresh/1e3, after/1e3, after/fresh)
	if after > 2*fresh {
		t.Fatalf("a one-key Get costs %.1f µs after a 4096-key cycle against %.1f µs before it: the batch path pays for a previous batch",
			after/1e3, fresh/1e3)
	}
}
