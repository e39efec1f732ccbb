package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldOut = `goos: linux
BenchmarkOpGetBatch-8            	      10	  95000000 ns/op	  12 rounds/batch
BenchmarkOpGetBatch-8            	      10	  90000000 ns/op	  12 rounds/batch
BenchmarkHostProbeFlat/batch-64-8	    5794	     43381 ns/op	 677.8 ns/key
BenchmarkGoneBench-8             	     100	      1000 ns/op
PASS
`

const newOut = `goos: linux
BenchmarkOpGetBatch-8            	      10	  93000000 ns/op	  12 rounds/batch
BenchmarkHostProbeFlat/batch-64-8	    5794	     60000 ns/op	 900.0 ns/key
BenchmarkFreshBench-8            	     100	      2000 ns/op
PASS
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchCollectsSamples(t *testing.T) {
	m, err := parseBench(writeTemp(t, "old.txt", oldOut))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m["BenchmarkOpGetBatch-8"]); got != 2 {
		t.Errorf("OpGetBatch samples = %d, want 2 (repeated -count runs accumulate)", got)
	}
	if got := best(m["BenchmarkOpGetBatch-8"]); got != 90000000 {
		t.Errorf("best = %v, want the minimum 90000000", got)
	}
	if _, ok := m["BenchmarkHostProbeFlat/batch-64-8"]; !ok {
		t.Errorf("sub-benchmark name not parsed")
	}
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	old, _ := parseBench(writeTemp(t, "old.txt", oldOut))
	neu, _ := parseBench(writeTemp(t, "new.txt", newOut))
	lines, regressed := compare(old, neu, 10)

	// 90ms -> 93ms is +3.3%: within threshold. 43381 -> 60000 is +38%.
	if len(regressed) != 1 || regressed[0] != "BenchmarkHostProbeFlat/batch-64-8" {
		t.Fatalf("regressed = %v, want exactly the HostProbeFlat benchmark", regressed)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"BenchmarkGoneBench-8",  // only in old: reported, skipped
		"BenchmarkFreshBench-8", // new benchmark: no baseline, never fails
		"REGRESSED",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
	if strings.Count(joined, "REGRESSED") != 1 {
		t.Errorf("want exactly one REGRESSED line:\n%s", joined)
	}
}

func TestCompareThresholdBoundary(t *testing.T) {
	old := map[string][]float64{"BenchmarkX-8": {1000}}
	neu := map[string][]float64{"BenchmarkX-8": {1100}}
	if _, regressed := compare(old, neu, 10); len(regressed) != 0 {
		t.Errorf("exactly +10%% must pass a 10%% threshold (gate is strict-greater)")
	}
	neu["BenchmarkX-8"] = []float64{1101}
	if _, regressed := compare(old, neu, 10); len(regressed) != 1 {
		t.Errorf("+10.1%% must fail a 10%% threshold")
	}
}
