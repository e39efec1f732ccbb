package main

// The catalogue: the three workloads and every metric the benchmark
// reports. BENCHMARK.json is generated from these tables (-manifest) and
// main_test.go asserts the checked-in file still equals them, so a name,
// unit, direction or bound is written down exactly once.

import (
	"encoding/json"
	"time"
)

// doorKind selects the front door a workload drives.
type doorKind int

const (
	doorIndex   doorKind = iota // pimtrie.Index called directly
	doorRouter                  // shard.Router over two Index+Server shards
	doorDurable                 // serve.Server with a SyncEveryEpoch WAL
	doorServer                  // plain serve.Server; only the router-overhead rung uses it
)

// workloadDef is one workload: a configuration of the stack plus the
// traffic the shared client model sends through it.
type workloadDef struct {
	Name string
	Why  string
	kind doorKind
	n, p int // stored keys; PIM modules per index
	// getPct is the read share of single-key requests; the rest are puts.
	getPct int
	// zipf > 0 draws read keys from workload.KeyStream with that exponent;
	// zipf == 0 draws them from HotRangeStream(0.8, 16 ranges, 20 000).
	zipf float64
	// pipelineRequests > 0 makes the pipelined phase fixed work instead of
	// fixed time.
	pipelineRequests int
}

var workloads = []workloadDef{
	{
		Name: "index_batch",
		Why:  "4096-key batches straight into pimtrie.Index: all work is core/querytrie/bitstr/hashing/pim, none serve/shard/wal; model counters repeat exactly and carry the paper's Table-1 and skew claims",
		kind: doorIndex, n: 200000, p: 64, getPct: 90, zipf: 1.0,
	},
	{
		Name: "router_strong",
		Why:  "single-key ReadStrong 90/10 traffic with a shifting hot range through shard.Router (2 shards, live migration): per-request and per-epoch fixed costs dominate; the only workload that runs shard",
		kind: doorRouter, n: 100000, p: 32, getPct: 90,
		// Two hot-range periods of gets (20 000 each, nine requests in ten),
		// so that every pass sends the same requests to the same shards: how
		// the hot range lies over the two shards sets the rate.
		pipelineRequests: 2 * hotPeriod * 10 / 9,
	},
	{
		Name: "durable_write",
		Why:  "20/80 write-heavy traffic on a durable serve.Server (fsync every epoch, checkpoint every 2048) with a restart and read-back each pass: the only workload that runs wal, the checkpointer and recovery",
		kind: doorDurable, n: 100000, p: 32, getPct: 20, zipf: 1.0,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported metric. Bound is set on end-to-end
// metrics only, Layer on per-layer metrics only (BENCHMARK.json has no
// place for it; README.md says which end-to-end metric each layer moves).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
}

const (
	up   = "higher"
	down = "lower"
)

// endToEnd lists the end-to-end metrics. Every workload reports every one
// of them, measured through its own front door (README.md has the
// per-workload definitions). The three wall-clock rows are the ones a
// user sees — throughput under the workload's own load and the unloaded
// latency of a read and of a write — and are kept to three because each
// must hold its spread on a shared box; the per-op batch rates and the
// p95s are per-layer rows of the traced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: down, Bound: 0.25},
	{Name: "keys_per_s", Unit: "1/s", Better: up, Bound: 0.25},
	{Name: "get_p50_us", Unit: "us", Better: down, Bound: 0.25},
	{Name: "put_p50_us", Unit: "us", Better: down, Bound: 0.25},
	{Name: "model_rounds_per_batch", Unit: "rounds", Better: down, Bound: 0.12},
	{Name: "model_io_time_per_key", Unit: "words", Better: down, Bound: 0.12},
	{Name: "model_pim_time_per_key", Unit: "work", Better: down, Bound: 0.18},
	{Name: "model_io_balance", Unit: "ratio", Better: down, Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: down, Bound: 0.07},
}

// timingMetrics are the wall-clock rows: a run reports the best of their
// per-pass values, where every other row reports the median. Whatever
// else runs on a shared box only ever slows a pass down, so the best pass
// is the one closest to the undisturbed machine.
var timingMetrics = map[string]bool{"keys_per_s": true, "get_p50_us": true, "put_p50_us": true}

// modelMetrics are the end-to-end metrics that must agree to nine
// significant digits across the passes of an index_batch run.
var modelMetrics = []string{
	"model_rounds_per_batch", "model_io_time_per_key",
	"model_pim_time_per_key", "model_io_balance",
}

// corePhases are the obs phase names the traced run attributes model
// cost to.
var corePhases = []string{
	"master-match", "region-match", "block-match", "push-pull", "apply", "block-split",
}

// perLayer lists the per-layer metrics of the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "bitstr.argsort_ns_per_key", Unit: "ns", Better: down, Layer: "bitstr"},
		{Name: "bitstr.lcp_ns_per_pair", Unit: "ns", Better: down, Layer: "bitstr"},
		{Name: "hashing.prefix_hashes_ns_per_key", Unit: "ns", Better: down, Layer: "hashing"},
		{Name: "querytrie.build_ns_per_key", Unit: "ns", Better: down, Layer: "querytrie"},
		{Name: "querytrie.node_hashes_ns_per_key", Unit: "ns", Better: down, Layer: "querytrie"},
		{Name: "batch.lcp_keys_per_s", Unit: "1/s", Better: up, Layer: "core"},
		{Name: "batch.get_keys_per_s", Unit: "1/s", Better: up, Layer: "core"},
		{Name: "batch.update_keys_per_s", Unit: "1/s", Better: up, Layer: "core"},
		{Name: "core.load_us_per_key", Unit: "us", Better: down, Layer: "core"},
		{Name: "core.prepare_us_per_key", Unit: "us", Better: down, Layer: "core"},
		{Name: "core.prepare_share", Unit: "ratio", Better: down, Layer: "core"},
		{Name: "core.lcp_execute_us_per_key", Unit: "us", Better: down, Layer: "core"},
		{Name: "core.get_execute_us_per_key", Unit: "us", Better: down, Layer: "core"},
		{Name: "core.insert_execute_us_per_key", Unit: "us", Better: down, Layer: "core"},
		{Name: "core.delete_execute_us_per_key", Unit: "us", Better: down, Layer: "core"},
		{Name: "core.subtree_us_per_result", Unit: "us", Better: down, Layer: "core"},
	}
	for _, p := range corePhases {
		m = append(m,
			metricDef{Name: "core.phase." + p + ".rounds_per_batch", Unit: "rounds", Better: down, Layer: "core phases"},
			metricDef{Name: "core.phase." + p + ".io_time_share", Unit: "ratio", Better: down, Layer: "core phases"})
	}
	return append(m,
		metricDef{Name: "pim.round_dispatch_us", Unit: "us", Better: down, Layer: "pim"},
		metricDef{Name: "pim.rounds_per_s", Unit: "1/s", Better: up, Layer: "pim"},
		metricDef{Name: "pim.io_words_per_key", Unit: "words", Better: down, Layer: "pim"},
		metricDef{Name: "pim.work_balance", Unit: "ratio", Better: down, Layer: "pim"},
		metricDef{Name: "pim.space_words_per_key", Unit: "words", Better: down, Layer: "pim"},
		metricDef{Name: "trie.flatten_ms", Unit: "ms", Better: down, Layer: "trie"},
		metricDef{Name: "trie.flat_get_ns_per_key", Unit: "ns", Better: down, Layer: "trie"},
		metricDef{Name: "trie.insert_ns_per_key", Unit: "ns", Better: down, Layer: "trie"},
		metricDef{Name: "sync.get_p95_us", Unit: "us", Better: down, Layer: "request"},
		metricDef{Name: "sync.put_p95_us", Unit: "us", Better: down, Layer: "request"},
		metricDef{Name: "serve.submit_us", Unit: "us", Better: down, Layer: "serve"},
		metricDef{Name: "serve.linger_p50_us", Unit: "us", Better: down, Layer: "serve"},
		metricDef{Name: "serve.prepare_p50_us", Unit: "us", Better: down, Layer: "serve"},
		metricDef{Name: "serve.execute_p50_us", Unit: "us", Better: down, Layer: "serve"},
		metricDef{Name: "serve.keys_per_read_epoch", Unit: "keys", Better: up, Layer: "serve"},
		metricDef{Name: "serve.keys_per_write_epoch", Unit: "keys", Better: up, Layer: "serve"},
		metricDef{Name: "serve.read_epochs_per_s", Unit: "1/s", Better: down, Layer: "serve"},
		metricDef{Name: "serve.write_epochs_per_s", Unit: "1/s", Better: down, Layer: "serve"},
		metricDef{Name: "serve.dedupe_ratio", Unit: "ratio", Better: up, Layer: "serve"},
		metricDef{Name: "serve.model_rounds_per_kop", Unit: "rounds", Better: down, Layer: "serve"},
		metricDef{Name: "shard.submit_us", Unit: "us", Better: down, Layer: "shard"},
		metricDef{Name: "shard.router_overhead_us", Unit: "us", Better: down, Layer: "shard"},
		metricDef{Name: "shard.migrations", Unit: "count", Better: down, Layer: "shard"},
		metricDef{Name: "shard.moved_keys", Unit: "keys", Better: down, Layer: "shard"},
		metricDef{Name: "shard.load_imbalance", Unit: "ratio", Better: down, Layer: "shard"},
		metricDef{Name: "wal.append_sync_us", Unit: "us", Better: down, Layer: "wal"},
		metricDef{Name: "wal.epochs_per_put", Unit: "ratio", Better: down, Layer: "wal"},
		metricDef{Name: "wal.bytes_per_put", Unit: "bytes", Better: down, Layer: "wal"},
		metricDef{Name: "wal.fsyncs_per_put", Unit: "ratio", Better: down, Layer: "wal"},
		metricDef{Name: "wal.checkpoints", Unit: "count", Better: down, Layer: "wal"},
		metricDef{Name: "wal.checkpoint_ms", Unit: "ms", Better: down, Layer: "wal"},
		metricDef{Name: "wal.recover_s", Unit: "s", Better: down, Layer: "wal"},
		metricDef{Name: "wal.replayed_epochs", Unit: "count", Better: down, Layer: "wal"},
		metricDef{Name: "host.cpu_us_per_op", Unit: "us", Better: down, Layer: "host"},
		metricDef{Name: "host.allocs_per_op", Unit: "count", Better: down, Layer: "host"},
		metricDef{Name: "host.alloc_bytes_per_op", Unit: "bytes", Better: down, Layer: "host"},
		metricDef{Name: "host.gc_cpu_frac", Unit: "ratio", Better: down, Layer: "host"},
		metricDef{Name: "trace_overhead_frac", Unit: "ratio", Better: down, Layer: "harness"},
	)
}

// runSeconds is BENCHMARK.json's run_seconds: the measured seconds of one
// run, split over three passes. The driver's 70 runs and two builds must
// fit 3420 s, about 48 s for a run including its three set-ups and its
// checks; 18 s measured keeps a run near 38 s on the reference box.
const runSeconds = 18

// scale sizes one run. fromSeconds derives it from -seconds; quickScale
// is the go-test size.
type scale struct {
	passes       int
	nDiv         int           // divides every workload's n
	batch        int           // keys per batch call
	indexCycles  int           // batch-phase cycles per pass, index_batch
	servedCycles int           // batch-phase cycles per pass, served workloads
	phase        time.Duration // sync phase and pipelined phase, each
	warmRequests int           // pipelined warm-up requests (fixed work)
	warmWindow   int           // requests in flight during the warm-up
	window       int           // requests in flight in the pipelined phase
	rungReps     int           // repetitions of each layer rung
}

// fromSeconds splits seconds of measuring over three passes. A served
// pass spends two fifths of its share in the sync phase, two fifths in the
// pipelined phase and the rest on a few batch cycles for the model
// counters; an index_batch pass spends a fifth on one-key calls and runs
// fixed work sized to the rest on the reference box (one cycle of five
// 4096-key calls takes about 0.4 s there on one processor). The batch
// phase is fixed work, never fixed time: the model counters must repeat,
// and an index slows down as insert/delete cycles churn it, so a rate is
// comparable only at an equal cycle count.
func fromSeconds(seconds int) scale {
	return scale{
		passes:       3,
		nDiv:         1,
		batch:        4096,
		indexCycles:  max(2, seconds*2/3),
		servedCycles: max(1, seconds*3/20),
		phase:        time.Duration(seconds) * time.Second * 2 / 15,
		warmRequests: 500,
		warmWindow:   64,
		window:       512,
		rungReps:     5,
	}
}

func quickScale() scale {
	return scale{
		passes: 1, nDiv: 100, batch: 256, indexCycles: 2, servedCycles: 1,
		phase: 200 * time.Millisecond, warmRequests: 200, warmWindow: 16, window: 64, rungReps: 2,
	}
}

// manifest is BENCHMARK.json, in the key order of the driver's contract.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers always marshal
	}
	return append(b, '\n')
}
