package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"github.com/pimlab/pimtrie/internal/trie"
)

// TestManifestMatchesCatalogue keeps BENCHMARK.json and catalog.go one
// source of truth, and holds both to the limits of the driver's contract.
func TestManifestMatchesCatalogue(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from catalog.go; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	var m manifest
	if err := json.Unmarshal(onDisk, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != 9 || len(m.PerLayer) != 66 || len(m.Workloads) != 3 {
		t.Errorf("catalogue has %d workloads, %d end-to-end and %d per-layer metrics", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has unit %q and bound %v", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == down)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != nil {
			t.Errorf("per-layer metric %s has unit %q and bound %v", d.Name, d.Unit, d.Bound)
		}
	}
	if runs := 4 + 22*len(m.Workloads); runs*42 > 3420 {
		t.Errorf("%d runs of up to 42 s do not fit the driver's 3420 s", runs)
	}
}

func allWorkloads() []*workloadDef {
	var ws []*workloadDef
	for i := range workloads {
		ws = append(ws, &workloads[i])
	}
	return ws
}

// checkEmitted asserts that a run reported exactly the catalogue's
// names with its units, and a finite number for each.
func checkEmitted(t *testing.T, r runResult, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failure)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: %s not emitted", r.Workload, d.Name)
			continue
		}
		if mv.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, catalogue says %q", r.Workload, d.Name, mv.Unit, d.Unit)
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("%s: %s = %v", r.Workload, d.Name, mv.Value)
		}
	}
}

func TestQuickRun(t *testing.T) {
	results, err := runUntraced(allWorkloads(), quickScale(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		checkEmitted(t, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, every end-to-end metric measures work that was done", r.Workload, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}
}

// layersOf lists the layers that do work on a workload, beyond the rungs
// and the core attribution every traced run has.
var layersOf = map[string][]string{
	"index_batch":   nil,
	"router_strong": {"serve.linger_p50_us", "serve.keys_per_read_epoch", "shard.submit_us", "shard.load_imbalance"},
	"durable_write": {"serve.submit_us", "wal.epochs_per_put", "wal.bytes_per_put", "wal.fsyncs_per_put", "wal.recover_s"},
}

func TestQuickTracedRun(t *testing.T) {
	dir := t.TempDir()
	results, err := runTraced(allWorkloads(), quickScale(), 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	everywhere := []string{
		"bitstr.argsort_ns_per_key", "bitstr.lcp_ns_per_pair", "hashing.prefix_hashes_ns_per_key",
		"querytrie.build_ns_per_key", "querytrie.node_hashes_ns_per_key",
		"core.load_us_per_key", "core.prepare_us_per_key", "core.prepare_share",
		"core.lcp_execute_us_per_key", "core.get_execute_us_per_key", "core.insert_execute_us_per_key",
		"core.delete_execute_us_per_key", "core.subtree_us_per_result",
		"core.phase.master-match.rounds_per_batch", "core.phase.region-match.io_time_share",
		"batch.lcp_keys_per_s", "batch.get_keys_per_s", "batch.update_keys_per_s", "sync.get_p95_us", "sync.put_p95_us",
		"pim.round_dispatch_us", "pim.rounds_per_s", "pim.io_words_per_key", "pim.work_balance", "pim.space_words_per_key",
		"trie.flatten_ms", "trie.flat_get_ns_per_key", "trie.insert_ns_per_key", "wal.append_sync_us",
		"host.cpu_us_per_op", "host.allocs_per_op", "host.alloc_bytes_per_op",
	}
	for _, r := range results {
		checkEmitted(t, r, perLayer)
		for _, name := range append(everywhere, layersOf[r.Workload]...) {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v where the layer did work", r.Workload, name, r.Metrics[name].Value)
			}
		}
		if v := r.Metrics["trace_overhead_frac"].Value; v >= 1 {
			t.Errorf("%s: trace_overhead_frac = %v", r.Workload, v)
		}

		// The span file: parents exist, children fit, and the table's self
		// time plus the children's time is each parent's time.
		spans := readSpans(t, dir+"/trace/"+r.Workload+"/spans.jsonl")
		if len(spans) == 0 {
			t.Fatalf("%s: no spans written", r.Workload)
		}
		if err := checkSpans(spans); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
		names := map[string]bool{}
		for _, s := range spans {
			names[s.Name] = true
		}
		want := []string{"cycle", "lcp", "request", "submit", "wait"}
		if r.Workload == "index_batch" {
			want = append(want, "prepare", "execute")
		}
		if r.Workload == "durable_write" {
			want = append(want, "recover", "wal.Recover", "serve.Restore")
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %q span", r.Workload, n)
			}
		}
		var total, self float64
		tr := &tracer{spans: spans}
		for _, row := range tr.layerTable() {
			self += row.SelfMs
		}
		for _, s := range spans {
			if s.Parent < 0 {
				total += float64(s.End-s.Start) / 1e6
			}
		}
		if math.Abs(total-self) > 1e-6*total {
			t.Errorf("%s: self times sum to %v ms, root spans to %v ms", r.Workload, self, total)
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	return spans
}

// TestWrongOracleFailsTheRun plants one wrong expectation: the run must
// count a failed operation and report itself incorrect.
func TestWrongOracleFailsTheRun(t *testing.T) {
	w := workloadByName("index_batch")
	sc := quickScale()
	wd, _ := newWorld(1, w.n/sc.nDiv, sc.batch)
	victim := wd.cycles[0].get[0]
	oracleHook = func(oracle *trie.Trie) {
		v, _ := oracle.Get(victim)
		oracle.Insert(victim, v+1)
	}
	defer func() { oracleHook = nil }()
	results, err := runUntraced([]*workloadDef{w}, sc, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Correct || r.Failed == 0 {
		t.Errorf("run with a wrong oracle reported correct=%v failed=%d", r.Correct, r.Failed)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
