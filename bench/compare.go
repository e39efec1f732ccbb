package main

// -compare: the tool for the two-sets acceptance check. Each result file
// holds one JSON line per run; per workload and metric it prints both
// sets' medians and spreads, how much worse the second is than the first,
// and the bound, and fails when any bound is exceeded. A metric whose
// spread in either set is wider than its bound is marked unresolved: the
// sets cannot show it unchanged.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readRuns collects, per workload and metric, one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var doc runDoc
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		for _, r := range doc.Results {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, mv := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
			}
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles as Python's statistics.quantiles(v, n=4)
// gives them; zero for fewer than two values.
func spread(v []float64) float64 {
	m := len(v)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// worse is how far b is on the wrong side of a, as a share of a.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == up {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareFiles(pathA, pathB string) int {
	a, err := readRuns(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRuns(pathB); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func compareSets(a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Printf("%-16s %-24s %14s %8s %14s %8s %8s %7s\n", "workload", "metric", "median A", "spread", "median B", "spread", "worse", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			by := worse(median(va), median(vb), d.Better)
			verdict := ""
			switch {
			case by > d.Bound:
				verdict = "  EXCEEDS BOUND"
				code = 1
			case d.Name != "setup_s" && max(spread(va), spread(vb)) > d.Bound:
				verdict = "  unresolved"
			}
			fmt.Printf("%-16s %-24s %14.6g %7.1f%% %14.6g %7.1f%% %7.1f%% %6.0f%%%s\n",
				w.Name, d.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*by, 100*d.Bound, verdict)
		}
	}
	return code
}
