// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each function
// runs one sweep on fresh simulated systems and returns a formatted
// Table; cmd/pimbench prints them, bench_test.go asserts their shapes.
//
// All quantities are PIM Model metrics: IO rounds per batch, IO words
// per operation, IO time (max per-module words), balance ratios
// (P·max/avg), PIM time and space in machine words. Absolute wall-clock
// is reported by the Go benchmarks instead.
package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/pimlab/pimtrie/internal/baseline"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/core"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Scale bundles sweep sizes so tests can shrink them.
type Scale struct {
	P     int // modules
	N     int // stored keys
	Batch int // queries per batch
	Seed  int64
}

// DefaultScale is used by cmd/pimbench.
var DefaultScale = Scale{P: 32, N: 20000, Batch: 2048, Seed: 1}

func f64(v float64) string { return fmt.Sprintf("%.2f", v) }
func i64(v int64) string   { return fmt.Sprintf("%d", v) }

// newPIMTrie builds a loaded PIM-trie over its own system.
func newPIMTrie(sc Scale, keys []bitstr.String, values []uint64) (*core.PIMTrie, *pim.System) {
	sys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
	pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed)})
	pt.Build(keys, values)
	return pt, sys
}

// SpaceTable reproduces Table 1's Space column: words of storage per
// structure as n grows, for 64-bit keys (the only width the x-fast
// baseline supports) and long keys (PIM-trie and DistRadix only).
func SpaceTable(sc Scale) Table {
	t := Table{
		ID:     "E1",
		Title:  "Table 1 (space): words of PIM memory vs n",
		Header: []string{"n", "l(bits)", "pim-trie", "dist-radix", "dist-xfast", "range-part"},
		Notes:  "expected shape: pim-trie ≈ dist-radix ≈ range-part = O(L/w + n); dist-xfast = O(n·l) — an l/w ≈ w/1 factor larger at l=64",
	}
	for _, n := range []int{sc.N / 8, sc.N / 2, sc.N} {
		for _, l := range []int{64, 512} {
			g := workload.New(sc.Seed)
			keys := g.FixedLen(n, l)
			values := g.Values(n)

			pt, ptSys := newPIMTrie(sc, keys, values)
			_ = pt
			ptSpace, _ := ptSys.SpaceWords()

			drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
			dr := baseline.NewDistRadix(drSys, 8, keys, values)
			drSpace := dr.SpaceWords()

			rpSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
			rp := baseline.NewRangePart(rpSys, keys, values)
			rpSpace := rp.SpaceWords()

			xfSpace := "-"
			if l == 64 {
				xfSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
				ints := g.Uints(n, 64)
				xf := baseline.NewDistXFast(xfSys, 64, ints, values)
				xfSpace = fmt.Sprintf("%d", xf.SpaceWords())
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", l),
				fmt.Sprintf("%d", ptSpace), fmt.Sprintf("%d", drSpace), xfSpace, fmt.Sprintf("%d", rpSpace),
			})
		}
	}
	return t
}

// RoundsLCP reproduces Table 1's IO-rounds column for LCP: rounds per
// batch as the key length l grows — PIM-trie flat, DistRadix ~ l/s,
// DistXFast ~ log l.
func RoundsLCP(sc Scale) Table {
	t := Table{
		ID:     "E2",
		Title:  "Table 1 (IO rounds, LCP): rounds per batch vs key length",
		Header: []string{"l(bits)", "pim-trie", "dist-radix(s=8)", "dist-xfast", "range-part"},
		Notes:  "expected shape: pim-trie and range-part flat; dist-radix grows ≈ l/8; dist-xfast ≈ log2(l)",
	}
	for _, l := range []int{64, 128, 256, 512, 1024} {
		g := workload.New(sc.Seed)
		keys := g.FixedLen(sc.N/4, l)
		values := g.Values(len(keys))
		queries := g.PrefixQueries(keys, sc.Batch/2, 16)

		pt, ptSys := newPIMTrie(sc, keys, values)
		before := ptSys.Metrics()
		pt.LCP(queries)
		ptRounds := ptSys.Metrics().Sub(before).Rounds

		drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		dr := baseline.NewDistRadix(drSys, 8, keys, values)
		before = drSys.Metrics()
		dr.LCP(queries)
		drRounds := drSys.Metrics().Sub(before).Rounds

		xfRounds := "-"
		if l <= 64 {
			xfSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
			ints := g.Uints(len(keys), l)
			xf := baseline.NewDistXFast(xfSys, l, ints, values)
			before = xfSys.Metrics()
			xf.LongestPrefixLevel(ints[:len(queries)])
			xfRounds = i64(xfSys.Metrics().Sub(before).Rounds)
		} else {
			// Larger widths exceed the machine word: the structure cannot
			// represent them (Table 1's footnote #) — report log2 l as the
			// hypothetical bound.
			xfRounds = fmt.Sprintf("~%d*", log2(l)+1)
		}

		rpSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		rp := baseline.NewRangePart(rpSys, keys, values)
		before = rpSys.Metrics()
		rp.LCP(queries)
		rpRounds := rpSys.Metrics().Sub(before).Rounds

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", l), i64(ptRounds), i64(drRounds), xfRounds, i64(rpRounds),
		})
	}
	return t
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// RoundsVsP measures PIM-trie's rounds per batch across module counts —
// the O(log P) claim (flat-to-logarithmic in our flattened descent).
func RoundsVsP(sc Scale) Table {
	t := Table{
		ID:     "E2b",
		Title:  "IO rounds per LCP batch vs P (pim-trie)",
		Header: []string{"P", "rounds", "io-time", "io-words/op"},
		Notes:  "expected shape: rounds flat/logarithmic in P; io-time shrinking ≈ 1/P at fixed batch",
	}
	g := workload.New(sc.Seed)
	keys := g.VarLen(sc.N/2, 32, 256)
	values := g.Values(len(keys))
	queries := g.PrefixQueries(keys, sc.Batch, 16)
	for _, p := range []int{4, 8, 16, 32, 64, 128} {
		sys := pim.NewSystem(p, pim.WithSeed(sc.Seed))
		pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed)})
		pt.Build(keys, values)
		before := sys.Metrics()
		pt.LCP(queries)
		d := sys.Metrics().Sub(before)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p), i64(d.Rounds), i64(d.IOTime),
			f64(float64(d.IOWords) / float64(len(queries))),
		})
	}
	return t
}

// RoundsUpdate reproduces Table 1's IO-rounds column for Insert/Delete.
func RoundsUpdate(sc Scale) Table {
	t := Table{
		ID:     "E3",
		Title:  "Table 1 (IO rounds, Insert+Delete): rounds per batch vs key length",
		Header: []string{"l(bits)", "pim-trie ins", "pim-trie del", "dist-radix ins", "range-part ins"},
		Notes:  "expected shape: pim-trie and range-part flat (amortized); dist-radix grows with l and batch (no batch parallelism)",
	}
	for _, l := range []int{64, 256, 512} {
		g := workload.New(sc.Seed)
		keys := g.FixedLen(sc.N/4, l)
		values := g.Values(len(keys))
		fresh := g.FixedLen(sc.Batch/4, l)
		freshV := g.Values(len(fresh))

		pt, ptSys := newPIMTrie(sc, keys, values)
		before := ptSys.Metrics()
		pt.Insert(fresh, freshV)
		insRounds := ptSys.Metrics().Sub(before).Rounds
		before = ptSys.Metrics()
		pt.Delete(fresh)
		delRounds := ptSys.Metrics().Sub(before).Rounds

		drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		dr := baseline.NewDistRadix(drSys, 8, keys, values)
		before = drSys.Metrics()
		dr.Insert(fresh[:64], freshV[:64]) // clipped: per-key rounds explode
		drRounds := drSys.Metrics().Sub(before).Rounds * int64(len(fresh)) / 64

		rpSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		rp := baseline.NewRangePart(rpSys, keys, values)
		before = rpSys.Metrics()
		rp.Insert(fresh, freshV)
		rpRounds := rpSys.Metrics().Sub(before).Rounds

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", l), i64(insRounds), i64(delRounds),
			fmt.Sprintf("%d(scaled)", drRounds), i64(rpRounds),
		})
	}
	return t
}

// RoundsSubtree reproduces Table 1's Subtree column: rounds vs result
// size — PIM-trie bounded by the block-tree depth, DistRadix by O(n_D).
func RoundsSubtree(sc Scale) Table {
	t := Table{
		ID:     "E4",
		Title:  "Table 1 (IO rounds, Subtree): rounds per query vs result size",
		Header: []string{"result-size", "pim-trie", "dist-radix(s=8)"},
		Notes:  "expected shape: pim-trie grows with block-tree depth (log-ish); dist-radix grows with the subtree's node depth",
	}
	g := workload.New(sc.Seed)
	// Keys under a common 16-bit prefix so one query returns them all.
	prefixKeys := g.SharedPrefix(sc.N/8, 16, 96)
	other := g.FixedLen(sc.N/8, 112)
	keys := append(append([]bitstr.String{}, prefixKeys...), other...)
	values := g.Values(len(keys))
	prefix := prefixKeys[0].Prefix(16)

	for _, frac := range []int{16, 4, 1} {
		sub := keys[:len(prefixKeys)/frac]
		subV := values[:len(sub)]
		all := append(append([]bitstr.String{}, sub...), other...)
		allV := append(append([]uint64{}, subV...), values[len(prefixKeys):len(prefixKeys)+len(other)]...)

		pt, ptSys := newPIMTrie(sc, all, allV)
		before := ptSys.Metrics()
		res := pt.SubtreeQuery(prefix)
		ptRounds := ptSys.Metrics().Sub(before).Rounds

		drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		dr := baseline.NewDistRadix(drSys, 8, all, allV)
		before = drSys.Metrics()
		res2 := dr.Subtree(prefix)
		drRounds := drSys.Metrics().Sub(before).Rounds
		if len(res) != len(res2) {
			panic("experiments: subtree disagreement between structures")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", len(res)), i64(ptRounds), i64(drRounds),
		})
	}
	return t
}

// CommPerOp reproduces Table 1's communication column: IO words per
// operation vs key length for LCP and Insert.
func CommPerOp(sc Scale) Table {
	t := Table{
		ID:     "E5",
		Title:  "Table 1 (communication): IO words per op vs key length",
		Header: []string{"l(bits)", "pt-lcp", "pt-ins", "dr-lcp", "dr-ins", "xf-lcp", "rp-lcp"},
		Notes:  "expected shape: pim-trie ≈ l/64 + c (words); dist-radix ≈ l/8 (8× more); dist-xfast ≈ log l; range-part ≈ l/64 + c",
	}
	for _, l := range []int{64, 128, 256, 512, 1024} {
		g := workload.New(sc.Seed)
		keys := g.FixedLen(sc.N/4, l)
		values := g.Values(len(keys))
		// Queries are stored keys: full-length matches, so communication
		// reflects the whole key (random queries would diverge after
		// ~log n bits and hide the l-dependence).
		queries := g.Zipf(keys, sc.Batch/2, 1.01)
		nq := float64(len(queries))

		pt, ptSys := newPIMTrie(sc, keys, values)
		before := ptSys.Metrics()
		pt.LCP(queries)
		ptLCP := float64(ptSys.Metrics().Sub(before).IOWords) / nq
		freshIns := g.FixedLen(len(queries), l)
		before = ptSys.Metrics()
		pt.Insert(freshIns, values[:len(freshIns)])
		ptIns := float64(ptSys.Metrics().Sub(before).IOWords) / nq

		drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		dr := baseline.NewDistRadix(drSys, 8, keys, values)
		before = drSys.Metrics()
		dr.LCP(queries)
		drLCP := float64(drSys.Metrics().Sub(before).IOWords) / nq
		before = drSys.Metrics()
		dr.Insert(freshIns[:64], values[:64])
		drIns := float64(drSys.Metrics().Sub(before).IOWords) / 64

		xfLCP := "-"
		if l <= 64 {
			xfSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
			ints := g.Uints(len(keys), l)
			xf := baseline.NewDistXFast(xfSys, l, ints, values)
			before = xfSys.Metrics()
			xf.LongestPrefixLevel(ints[:len(queries)])
			xfLCP = f64(float64(xfSys.Metrics().Sub(before).IOWords) / nq)
		}

		rpSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		rp := baseline.NewRangePart(rpSys, keys, values)
		before = rpSys.Metrics()
		rp.LCP(queries)
		rpLCP := float64(rpSys.Metrics().Sub(before).IOWords) / nq

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", l), f64(ptLCP), f64(ptIns), f64(drLCP), f64(drIns), xfLCP, f64(rpLCP),
		})
	}
	return t
}

// CommSubtree reproduces Table 1's Subtree communication: words per
// query vs result size (dominated by the result itself, O((l+L_S)/w+n_S)).
func CommSubtree(sc Scale) Table {
	t := Table{
		ID:     "E6",
		Title:  "Table 1 (communication, Subtree): IO words per query vs result size",
		Header: []string{"result-size", "pim-trie words", "dist-radix words", "words/result (pt)"},
		Notes:  "expected shape: both linear in the result; pim-trie constant-factor smaller (block transfers vs per-node fetches)",
	}
	g := workload.New(sc.Seed)
	prefixKeys := g.SharedPrefix(sc.N/8, 16, 96)
	other := g.FixedLen(sc.N/8, 112)
	values := g.Values(len(prefixKeys) + len(other))
	prefix := prefixKeys[0].Prefix(16)
	for _, frac := range []int{16, 4, 1} {
		sub := prefixKeys[:len(prefixKeys)/frac]
		all := append(append([]bitstr.String{}, sub...), other...)
		allV := values[:len(all)]

		pt, ptSys := newPIMTrie(sc, all, allV)
		before := ptSys.Metrics()
		res := pt.SubtreeQuery(prefix)
		ptWords := ptSys.Metrics().Sub(before).IOWords

		drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		dr := baseline.NewDistRadix(drSys, 8, all, allV)
		before = drSys.Metrics()
		dr.Subtree(prefix)
		drWords := drSys.Metrics().Sub(before).IOWords

		perRes := "-"
		if len(res) > 0 {
			perRes = f64(float64(ptWords) / float64(len(res)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", len(res)), i64(ptWords), i64(drWords), perRes,
		})
	}
	return t
}

// SkewBalance reproduces the paper's headline claim (E7): per-module IO
// balance under adversarial skew, for PIM-trie vs the baselines.
// Balance = P · max_module(io) / Σ(io); 1.0 is perfect.
func SkewBalance(sc Scale) Table {
	t := Table{
		ID:     "E7",
		Title:  "skew resistance: IO balance, io-time / (io-words/P + 2·rounds), per LCP batch",
		Header: []string{"workload", "pim-trie", "range-part", "dist-radix(s=8)", "pt io-time", "rp io-time"},
		Notes:  "balance is IO time against a balanced layout's makespan, c = 2 words (one out, one back) per round: 1 balanced, P serialized. Expected shape: pim-trie stays far below range-part on every skewed row, and its io-time falls with the batch's distinct keys; range-part tends to P under range/point skew; dist-radix serializes its rounds under shared-prefix skew",
	}
	g := workload.New(sc.Seed)
	keys := g.VarLen(sc.N/2, 48, 160)
	values := g.Values(len(keys))

	pt, ptSys := newPIMTrie(sc, keys, values)
	rpSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
	rp := baseline.NewRangePart(rpSys, keys, values)
	drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
	dr := baseline.NewDistRadix(drSys, 8, keys, values)

	cases := []struct {
		name  string
		batch []bitstr.String
	}{
		{"uniform", g.FixedLen(sc.Batch, 96)},
		{"zipf(1.5)", g.Zipf(keys, sc.Batch, 1.5)},
		{"zipf(3.0)", g.Zipf(keys, sc.Batch, 3.0)},
		{"range-attack", g.RangeAttack(keys, sc.Batch, 48)},
		{"point-attack", g.PointAttack(keys, sc.Batch)},
	}
	for _, c := range cases {
		before := ptSys.Metrics()
		pt.LCP(c.batch)
		ptD := ptSys.Metrics().Sub(before)

		before = rpSys.Metrics()
		rp.LCP(c.batch)
		rpD := rpSys.Metrics().Sub(before)

		before = drSys.Metrics()
		dr.LCP(c.batch)
		drD := drSys.Metrics().Sub(before)

		t.Rows = append(t.Rows, []string{c.name,
			f64(makespanBalance(ptD, sc.P)), f64(makespanBalance(rpD, sc.P)), f64(makespanBalance(drD, sc.P)),
			i64(ptD.IOTime), i64(rpD.IOTime)})
	}
	return t
}

// roundFloorWords is the c of makespanBalance: the least a round costs a
// module it gives a task, one word out and one back.
const roundFloorWords = 2

// makespanBalance is a batch's IO time against the makespan of a
// perfectly balanced layout, io-words/P plus roundFloorWords per round:
// 1 when no module waits on another, about P when one module carries
// every word. The per-round floor keeps a batch that dedupes to a few
// dozen words from reading as skewed, as P·max/total does.
func makespanBalance(d pim.Metrics, p int) float64 {
	return float64(d.IOTime) / (float64(d.IOWords)/float64(p) + roundFloorWords*float64(d.Rounds))
}

// SkewedDataBalance complements E7 with data skew: a deep shared-prefix
// key set, queried uniformly along the spine.
func SkewedDataBalance(sc Scale) Table {
	t := Table{
		ID:     "E7b",
		Title:  "skew resistance under data skew (deep shared prefix)",
		Header: []string{"prefix(bits)", "pim-trie bal", "dist-radix bal", "pt rounds", "dr rounds"},
		Notes:  "expected shape: pim-trie balance and rounds flat as the spine deepens; dist-radix serializes on the spine (balance and rounds grow)",
	}
	for _, prefixBits := range []int{0, 256, 1024} {
		g := workload.New(sc.Seed)
		var keys []bitstr.String
		if prefixBits == 0 {
			keys = g.FixedLen(sc.N/8, 128)
		} else {
			keys = g.SharedPrefix(sc.N/8, prefixBits, 64)
		}
		values := g.Values(len(keys))
		queries := g.PrefixQueries(keys, sc.Batch/2, 8)

		pt, ptSys := newPIMTrie(sc, keys, values)
		before := ptSys.Metrics()
		pt.LCP(queries)
		d := ptSys.Metrics().Sub(before)

		drSys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		dr := baseline.NewDistRadix(drSys, 8, keys, values)
		before = drSys.Metrics()
		dr.LCP(queries)
		dd := drSys.Metrics().Sub(before)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", prefixBits), f64(d.IOBalance()), f64(dd.IOBalance()),
			i64(d.Rounds), i64(dd.Rounds),
		})
	}
	return t
}

// TheoremBounds checks Theorem 4.3 empirically (E8): rounds small and
// flat, IO time ≈ IO words / P (PIM-balance), across seeds.
func TheoremBounds(sc Scale) Table {
	t := Table{
		ID:     "E8",
		Title:  "Theorem 4.3 bounds: per-batch rounds, IO-time vs IOwords/P",
		Header: []string{"seed", "rounds", "io-words", "io-time", "P·io-time/io-words"},
		Notes:  "PIM-balance whp: the last column should stay O(1) (small constant) across seeds",
	}
	for seed := int64(1); seed <= 5; seed++ {
		g := workload.New(seed)
		keys := g.VarLen(sc.N/4, 32, 192)
		values := g.Values(len(keys))
		queries := g.PrefixQueries(keys, sc.Batch, 16)
		sys := pim.NewSystem(sc.P, pim.WithSeed(seed))
		pt := core.New(sys, core.Config{HashSeed: uint64(seed)})
		pt.Build(keys, values)
		before := sys.Metrics()
		pt.LCP(queries)
		d := sys.Metrics().Sub(before)
		ratio := float64(sc.P) * float64(d.IOTime) / float64(d.IOWords)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", seed), i64(d.Rounds), i64(d.IOWords), i64(d.IOTime), f64(ratio),
		})
	}
	return t
}

// AblationHashWidth (E9c) sweeps the hash output width, reporting false
// positives caught by verification and the resulting overhead.
func AblationHashWidth(sc Scale) Table {
	t := Table{
		ID:     "E9c",
		Title:  "ablation: hash width vs verification false hits (per LCP batch)",
		Header: []string{"width(bits)", "false-hits", "rehashes", "io-words/op"},
		Notes:  "narrow hashes trade verification work for hash-table space; results stay exact at every width",
	}
	g := workload.New(sc.Seed)
	keys := g.VarLen(sc.N/8, 32, 160)
	values := g.Values(len(keys))
	queries := g.PrefixQueries(keys, sc.Batch/2, 16)
	for _, width := range []uint{12, 16, 20, 24, 61} {
		sys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed), HashWidth: width, MaxRedo: 100})
		pt.Build(keys, values)
		before := sys.Metrics()
		fhBefore := pt.FalseHits()
		pt.LCP(queries)
		d := sys.Metrics().Sub(before)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", width),
			fmt.Sprintf("%d", pt.FalseHits()-fhBefore),
			fmt.Sprintf("%d", pt.Rehashes()),
			f64(float64(d.IOWords) / float64(len(queries))),
		})
	}
	return t
}

// RegionProbeByKeyLength (E5b) reports what region probing costs as keys
// grow. Table 1's PIM-time column is O(l/w) only if a region probe does
// O(1) work per word, which §4.4.2's pivot classes provide: on
// fixed-length keys region depth bounds grow with l, and a window reaching
// a whole word past its start word runs one class per word instead of one
// probe per bit. Rounds stay flat in l.
func RegionProbeByKeyLength(sc Scale) Table {
	t := Table{
		ID:     "E5b",
		Title:  "region probing vs key length (LCP batch, fixed-length keys)",
		Header: []string{"l(bits)", "region-bound-median", "pim-work/query", "pim-time", "io-words/query", "rounds", "answers-ok"},
		Notes:  "region windows reaching a word past their start word probe one pivot class per word (§4.4.2); answers-ok: every LCP equals the sequential trie's",
	}
	for _, l := range []int{128, 512, 1024, 2048} {
		g := workload.New(sc.Seed) // each row stands alone
		keys := g.FixedLen(sc.N/4, l)
		values := g.Values(len(keys))
		queries := g.PrefixQueries(keys, sc.Batch/2, 16)
		oracle := trie.New()
		for i, k := range keys {
			oracle.Insert(k, values[i])
		}
		sys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed)})
		pt.Build(keys, values)
		bound := pt.CollectStats().RegionBoundMedian
		before := sys.Metrics()
		got := pt.LCP(queries)
		d := sys.Metrics().Sub(before)
		ok := "yes"
		for i, q := range queries {
			if got[i] != oracle.LCPLen(q) {
				ok = "NO"
			}
		}
		nq := float64(len(queries))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", l), fmt.Sprintf("%d", bound), f64(float64(d.PIMWork) / nq), i64(d.PIMTime),
			f64(float64(d.IOWords) / nq), i64(d.Rounds), ok,
		})
	}
	return t
}

// AblationBlockSize (E9a) sweeps K_B, showing the balance/communication
// trade-off of block granularity.
func AblationBlockSize(sc Scale) Table {
	t := Table{
		ID:     "E9a",
		Title:  "ablation: block size K_B vs balance and words per op",
		Header: []string{"K_B(words)", "blocks", "io-words/op", "balance", "rounds"},
		Notes:  "small blocks spread load (balance↓) but add per-block overhead; large blocks amortize but coarsen distribution",
	}
	g := workload.New(sc.Seed)
	keys := g.VarLen(sc.N/4, 48, 160)
	values := g.Values(len(keys))
	queries := g.PrefixQueries(keys, sc.Batch, 16)
	for _, kb := range []int{32, 64, 128, 256} {
		sys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed), BlockWords: kb})
		pt.Build(keys, values)
		st := pt.CollectStats()
		before := sys.Metrics()
		pt.LCP(queries)
		d := sys.Metrics().Sub(before)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", kb), fmt.Sprintf("%d", st.Blocks),
			f64(float64(d.IOWords) / float64(len(queries))), f64(d.IOBalance()), i64(d.Rounds),
		})
	}
	return t
}

// AblationPushPull (E9b) compares push-only, pull-only and adaptive
// push-pull thresholds.
func AblationPushPull(sc Scale) Table {
	t := Table{
		ID:     "E9b",
		Title:  "ablation: push-pull threshold vs IO under point-skewed queries",
		Header: []string{"threshold(words)", "io-words/op", "io-time", "balance"},
		Notes:  "push-only (huge threshold) ships oversized pieces to single modules; pull-only (0-ish) drags blocks to the CPU; the adaptive middle is best on both",
	}
	g := workload.New(sc.Seed)
	keys := g.SharedPrefix(sc.N/8, 128, 96)
	values := g.Values(len(keys))
	queries := g.Zipf(keys, sc.Batch, 2.0)
	for _, th := range []int{8, 256, 1 << 20} {
		sys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed), PullThreshold: th})
		pt.Build(keys, values)
		before := sys.Metrics()
		pt.LCP(queries)
		d := sys.Metrics().Sub(before)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", th),
			f64(float64(d.IOWords) / float64(len(queries))), i64(d.IOTime), f64(d.IOBalance()),
		})
	}
	return t
}

// AblationRegionSize (E9d) sweeps K_MB, the meta-block (region) bound:
// few huge regions concentrate meta probing; many small ones inflate the
// replicated master table.
func AblationRegionSize(sc Scale) Table {
	t := Table{
		ID:     "E9d",
		Title:  "ablation: region size K_MB vs master size and balance",
		Header: []string{"K_MB(metas)", "regions", "master-entries", "io-words/op", "balance"},
		Notes:  "small regions inflate the replicated master (space, broadcast cost); large regions coarsen meta distribution (balance)",
	}
	g := workload.New(sc.Seed)
	keys := g.VarLen(sc.N/4, 48, 160)
	values := g.Values(len(keys))
	queries := g.PrefixQueries(keys, sc.Batch, 16)
	for _, kmb := range []int{8, 32, 128, 512} {
		sys := pim.NewSystem(sc.P, pim.WithSeed(sc.Seed))
		pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed), MetaBlockMax: kmb})
		pt.Build(keys, values)
		st := pt.CollectStats()
		before := sys.Metrics()
		pt.LCP(queries)
		d := sys.Metrics().Sub(before)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", kmb), fmt.Sprintf("%d", st.Regions), fmt.Sprintf("%d", pt.MasterEntries()),
			f64(float64(d.IOWords) / float64(len(queries))), f64(d.IOBalance()),
		})
	}
	return t
}

// FaultRecovery reproduces the robustness claim: under a seeded fault
// plan, answers stay bit-identical to a fault-free oracle while the
// module-loss repair cost is first-class in the model metrics. Each
// scenario runs the same build + LCP/Insert/Delete/LCP script, its
// crashes at the first round of an op of the fault-free run (crash-1
// and chaos: the insert; crash-2: the first LCP and the delete); the
// answers-ok column compares every result against the fault-free run.
func FaultRecovery(sc Scale) Table {
	t := Table{
		ID:    "EF",
		Title: "fault injection: module-loss recovery",
		Header: []string{
			"scenario", "crashes", "straggles", "truncs",
			"recoveries", "full-rebuilds", "rec-rounds", "rec-io-time", "answers-ok",
		},
		Notes: "answers-ok: all results bit-identical to the fault-free oracle",
	}
	g := workload.New(sc.Seed)
	keys := g.VarLen(sc.N, 32, 128)
	values := g.Values(len(keys))
	queries := g.PrefixQueries(keys, sc.Batch, 12)
	fresh := g.FixedLen(sc.Batch, 64)
	freshVals := g.Values(len(fresh))

	type outcome struct {
		lcp1, lcp2 []int
		dels       []bool
		n          int
	}
	// run plays the script; starts holds the round at which the first
	// LCP, the insert, the delete and the second LCP begin, so that a
	// crash is scheduled by op and stays in its op when an op's round
	// count changes.
	const lcp1, insert, del = 0, 1, 2
	run := func(plan *pim.FaultPlan) (o outcome, h core.Health, starts [4]int64) {
		opts := []pim.Option{pim.WithSeed(sc.Seed)}
		if plan != nil {
			opts = append(opts, pim.WithFaults(*plan))
		}
		sys := pim.NewSystem(sc.P, opts...)
		defer sys.Close()
		pt := core.New(sys, core.Config{HashSeed: uint64(sc.Seed), Recoverable: true})
		pt.Build(keys, values)
		starts[0] = sys.Metrics().Rounds
		o.lcp1 = pt.LCP(queries)
		starts[1] = sys.Metrics().Rounds
		pt.Insert(fresh, freshVals)
		starts[2] = sys.Metrics().Rounds
		o.dels = pt.Delete(keys[:sc.Batch])
		starts[3] = sys.Metrics().Rounds
		o.lcp2 = pt.LCP(queries)
		o.n = pt.KeyCount()
		return o, pt.Health(), starts
	}

	oracle, _, starts := run(nil)
	crashAt := func(op int) pim.FaultEvent {
		return pim.FaultEvent{Round: starts[op], Kind: pim.FaultCrash, Module: -1}
	}
	scenarios := []struct {
		name string
		plan *pim.FaultPlan
	}{
		{"fault-free", nil},
		{"crash-1", &pim.FaultPlan{Events: []pim.FaultEvent{crashAt(insert)}}},
		{"crash-2", &pim.FaultPlan{Events: []pim.FaultEvent{crashAt(lcp1), crashAt(del)}}},
		{"chaos", &pim.FaultPlan{
			Seed: sc.Seed, CrashProb: 0.01, StraggleProb: 0.05,
			TruncateProb: 0.02, MaxCrashes: 4,
			Events: []pim.FaultEvent{crashAt(insert)},
		}},
	}
	for _, s := range scenarios {
		o, h, _ := run(s.plan)
		ok := "yes"
		if !reflect.DeepEqual(o, oracle) {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			s.name, i64(h.Crashes), i64(h.Straggles), i64(h.Truncations),
			fmt.Sprintf("%d", h.Recoveries), fmt.Sprintf("%d", h.FullRebuilds),
			i64(h.RecoveryCost.Rounds), i64(h.RecoveryCost.IOTime), ok,
		})
	}
	return t
}

// Experiment is one entry of Registry: an experiment's ID, a one-line
// description and the function that runs it.
type Experiment struct {
	ID, What string
	Run      func(Scale) Table
}

// Registry lists every experiment in run order. pimbench's -list and
// -exp and the ledger test all read it.
var Registry = []Experiment{
	{"E1", "Table 1 space column", SpaceTable},
	{"E2", "Table 1 IO rounds (LCP)", RoundsLCP},
	{"E2b", "rounds/IO-time vs P", RoundsVsP},
	{"E3", "Table 1 IO rounds (Insert/Delete)", RoundsUpdate},
	{"E4", "Table 1 IO rounds (Subtree)", RoundsSubtree},
	{"E5", "Table 1 communication (LCP/Insert)", CommPerOp},
	{"E5b", "region probing vs key length", RegionProbeByKeyLength},
	{"E6", "Table 1 communication (Subtree)", CommSubtree},
	{"E7", "skew resistance (query skew)", SkewBalance},
	{"E7b", "skew resistance (data skew)", SkewedDataBalance},
	{"E8", "Theorem 4.3 bound check", TheoremBounds},
	{"E9a", "ablation: block size", AblationBlockSize},
	{"E9b", "ablation: push-pull threshold", AblationPushPull},
	{"E9c", "ablation: hash width", AblationHashWidth},
	{"E9d", "ablation: region size", AblationRegionSize},
	{"EF", "fault injection: module-loss recovery", FaultRecovery},
}
