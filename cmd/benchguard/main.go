// Command benchguard compares two `go test -bench` outputs and fails
// when any benchmark present in both regressed in throughput by more
// than a threshold. It is the CI regression gate: the workflow runs the
// benchmark suite on the base commit and on the head, then lets
// benchguard decide whether the head may merge.
//
//	go test -bench . -count 3 -run '^$' . > old.txt   # on base
//	go test -bench . -count 3 -run '^$' . > new.txt   # on head
//	benchguard -old old.txt -new new.txt -threshold 10
//
// With -count > 1 each side has several samples per benchmark;
// benchguard scores each side by its best (minimum) ns/op, the
// noise-robust statistic for a gate — transient slowness inflates the
// mean of a loaded CI runner, but the minimum of a few runs approaches
// the machine's true capability from above. Benchmarks present in only
// one file are reported and skipped: a new benchmark must not fail the
// gate that introduces it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one result line of `go test -bench` output:
//
//	BenchmarkHostProbeFlat/batch-64-8   5794   43381 ns/op   677.8 ns/key
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?[0-9]+)?) ns/op`)

// parseBench collects ns/op samples per benchmark name from one output
// file. Repeated names (-count > 1) accumulate.
func parseBench(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || v <= 0 {
			continue
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, sc.Err()
}

func best(samples []float64) float64 {
	b := samples[0]
	for _, s := range samples[1:] {
		if s < b {
			b = s
		}
	}
	return b
}

// compare scores old vs new and returns the formatted report lines and
// the names that regressed beyond threshold percent.
func compare(old, neu map[string][]float64, thresholdPct float64) (lines []string, regressed []string) {
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns, ok := neu[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("%-52s only in old output; skipped", name))
			continue
		}
		o, n := best(old[name]), best(ns)
		deltaPct := 100 * (n - o) / o
		verdict := "ok"
		if deltaPct > thresholdPct {
			verdict = "REGRESSED"
			regressed = append(regressed, name)
		}
		lines = append(lines, fmt.Sprintf("%-52s %12.1f -> %12.1f ns/op  %+6.1f%%  %s",
			name, o, n, deltaPct, verdict))
	}
	onlyNew := make([]string, 0)
	for name := range neu {
		if _, ok := old[name]; !ok {
			onlyNew = append(onlyNew, name)
		}
	}
	sort.Strings(onlyNew)
	for _, name := range onlyNew {
		lines = append(lines, fmt.Sprintf("%-52s new benchmark; no baseline", name))
	}
	return lines, regressed
}

func main() {
	oldP := flag.String("old", "", "baseline `go test -bench` output")
	newP := flag.String("new", "", "candidate `go test -bench` output")
	threshold := flag.Float64("threshold", 10, "max allowed ns/op regression, percent")
	flag.Parse()

	if *oldP == "" || *newP == "" {
		fmt.Fprintln(os.Stderr, "benchguard: both a baseline and a candidate file are required")
		os.Exit(2)
	}
	old, err := parseBench(*oldP)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	neu, err := parseBench(*newP)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if len(old) == 0 {
		// An empty baseline (first run of the gate, base predates the
		// suite) cannot gate anything.
		fmt.Println("benchguard: no benchmarks in baseline; nothing to gate")
		return
	}
	lines, regressed := compare(old, neu, *threshold)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchguard: %d benchmark(s) regressed more than %.0f%%: %v\n",
			len(regressed), *threshold, regressed)
		os.Exit(1)
	}
	fmt.Printf("\nbenchguard: %d benchmark(s) within %.0f%% threshold\n", len(old), *threshold)
}
