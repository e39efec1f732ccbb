// Command pimtrie-inspect loads a synthetic workload into a PIM-trie and
// dumps the structural and cost picture: blocks, regions, per-module
// space and the cost of a probe batch. Useful for eyeballing how the
// index lays data out under different distributions.
//
// Usage:
//
//	pimtrie-inspect -p 32 -n 10000 -dist shared -prefix 512
//	pimtrie-inspect -dist var -min 32 -max 512
//	pimtrie-inspect -rounds -op insert      # phase-attributed round table
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/core"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/workload"
)

func main() {
	var (
		p      = flag.Int("p", 32, "PIM modules")
		n      = flag.Int("n", 10000, "stored keys")
		batch  = flag.Int("batch", 1024, "probe batch size")
		seed   = flag.Int64("seed", 1, "seed")
		dist   = flag.String("dist", "var", "distribution: fixed|var|shared|chain|ip")
		bits   = flag.Int("bits", 128, "key bits (fixed)")
		minB   = flag.Int("min", 32, "min bits (var)")
		maxB   = flag.Int("max", 256, "max bits (var)")
		prefix = flag.Int("prefix", 512, "shared prefix bits (shared)")
		kb     = flag.Int("kb", 0, "block words K_B (0 = default)")
		trace  = flag.Bool("trace", false, "print a per-round trace of the probe batch")
		rounds = flag.Bool("rounds", false, "print the phase-attributed round table for the op chosen with -op")
		op     = flag.String("op", "lcp", "operation for -rounds: lcp|get|insert|delete|subtree")
	)
	flag.Parse()

	g := workload.New(*seed)
	var keys []bitstr.String
	switch *dist {
	case "fixed":
		keys = g.FixedLen(*n, *bits)
	case "var":
		keys = g.VarLen(*n, *minB, *maxB)
	case "shared":
		keys = g.SharedPrefix(*n, *prefix, 64)
	case "chain":
		keys = g.PrefixChain(*n, 8)
	case "ip":
		keys = g.IPv4Prefixes(*n)
	default:
		fmt.Fprintf(os.Stderr, "unknown -dist %q\n", *dist)
		os.Exit(2)
	}
	values := g.Values(len(keys))

	sys := pim.NewSystem(*p, pim.WithSeed(*seed))
	pt := core.New(sys, core.Config{HashSeed: uint64(*seed), BlockWords: *kb})
	pt.Build(keys, values)

	st := pt.CollectStats()
	total, per := sys.SpaceWords()
	min, max := per[0], per[0]
	for _, w := range per {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	fmt.Printf("pimtrie-inspect: P=%d dist=%s\n", *p, *dist)
	fmt.Printf("keys            %d\n", st.Keys)
	fmt.Printf("blocks          %d (K_B=%d words, largest %d; inserts split a block past 2·K_B)\n",
		st.Blocks, pt.Config().BlockWords, st.MaxBlock)
	fmt.Printf("regions         %d (K_MB=%d metas)\n", st.Regions, pt.Config().MetaBlockMax)
	fmt.Printf("depth bounds    master %d; regions median %d / max %d bits (hashing stops there; ≈ key length means deep data)\n",
		st.MasterBound, st.RegionBoundMedian, st.RegionBoundMax)
	fmt.Printf("space           %d words total; per-module min %d / avg %d / max %d\n",
		total, min, total / *p, max)
	fmt.Printf("space balance   %.2f (P·max/total)\n", float64(max)*float64(*p)/float64(total))

	queries := g.PrefixQueries(keys, *batch, 16)
	var tr *obs.Tracer
	if *trace {
		tr = obs.Attach(sys, "inspect/probe")
	}
	before := sys.Metrics()
	pt.LCP(queries)
	d := sys.Metrics().Sub(before)
	fmt.Printf("\nLCP batch of %d:\n", len(queries))
	fmt.Printf("rounds          %d\n", d.Rounds)
	fmt.Printf("io-words        %d (%.2f / op)\n", d.IOWords, float64(d.IOWords)/float64(len(queries)))
	fmt.Printf("io-time         %d (balance %.2f)\n", d.IOTime, d.IOBalance())
	fmt.Printf("pim-time        %d (balance %.2f)\n", d.PIMTime, d.WorkBalance())
	fmt.Printf("cpu-work        %d\n", d.CPUWork)
	ioMM, ioCV := metrics.Imbalance(d.PerModuleIO)
	wrkMM, wrkCV := metrics.Imbalance(d.PerModuleWrk)
	fmt.Printf("imbalance       io max/mean=%.2f cv=%.3f   work max/mean=%.2f cv=%.3f\n",
		ioMM, ioCV, wrkMM, wrkCV)
	if pt.FalseHits() > 0 || pt.Rehashes() > 0 {
		fmt.Printf("verification    %d false hits dropped, %d rehashes\n", pt.FalseHits(), pt.Rehashes())
	}
	if *trace {
		tr.Detach()
		printRoundTable("per-round trace (LCP probe batch)", tr.Data())
	}

	if *rounds {
		printRounds(pt, sys, g, keys, *op, *batch)
	}
}

// printRounds runs one more batch of the chosen operation under an obs
// tracer and prints its rounds with phase attribution.
func printRounds(pt *core.PIMTrie, sys *pim.System, g *workload.Gen, keys []bitstr.String, op string, batch int) {
	tr := obs.Attach(sys, "inspect/"+op)
	switch op {
	case "lcp":
		pt.LCP(g.PrefixQueries(keys, batch, 16))
	case "get":
		pt.Get(g.Zipf(keys, batch, 1.2))
	case "insert":
		fresh := g.VarLen(batch/4, 32, 256)
		pt.Insert(fresh, g.Values(len(fresh)))
	case "delete":
		n := batch / 4
		if n > len(keys) {
			n = len(keys)
		}
		pt.Delete(keys[:n])
	case "subtree":
		n := 4
		if n > len(keys) {
			n = len(keys)
		}
		prefixes := make([]bitstr.String, n)
		for i := range prefixes {
			k := keys[i]
			l := k.Len() / 4
			prefixes[i] = k.Prefix(l)
		}
		pt.SubtreeQueryBatch(prefixes)
	default:
		tr.Detach()
		fmt.Fprintf(os.Stderr, "unknown -op %q (want lcp|get|insert|delete|subtree)\n", op)
		os.Exit(2)
	}
	tr.Detach()
	printRoundTable(fmt.Sprintf("phase-attributed rounds (%s batch)", op), tr.Data())
	fmt.Printf("largest block   %d words after the batch (K_B=%d)\n", pt.CollectStats().MaxBlock, pt.Config().BlockWords)
}

// printRoundTable checks a detached trace's conservation and prints one
// row per round with its owning phase.
func printRoundTable(title string, d *obs.Trace) {
	if err := d.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "trace self-check failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%s:\n", title)
	fmt.Printf("%-6s %-30s %-7s %-8s %-10s %-10s %-8s %-8s\n",
		"round", "phase", "tasks", "modules", "send", "recv", "max-io", "max-work")
	for i := range d.Rounds {
		r := &d.Rounds[i]
		path := r.Path
		if path == "" {
			path = obs.UnattributedPath
		}
		fmt.Printf("%-6d %-30s %-7d %-8d %-10d %-10d %-8d %-8d\n",
			r.Index+1, path, r.Tasks, r.Modules, r.SendWords, r.RecvWords, r.MaxIO, r.MaxWork)
	}
	fmt.Printf("%d rounds, %d spans; io-time %d, io-words %d\n",
		len(d.Rounds), len(d.Spans), d.Total.IOTime, d.Total.IOWords)
}
