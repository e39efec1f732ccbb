package main

// The traced run's own machinery: wall-clock spans recorded by the
// harness around its calls into a layer, the layer rungs that time one
// layer at a time outside any workload, and the host counters.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/querytrie"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/wal"
)

// span is one timed interval. Root spans start a trace; every span of
// one request, cycle or restart carries its root's trace id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time (batch phase, sync phase, restart), so a new span's
// parent is simply the innermost span still open. A nil tracer records
// nothing, which is how untraced passes run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // ids of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	id := len(t.spans)
	s := span{ID: id, Parent: -1, Trace: id, Name: name}
	if len(t.open) > 0 {
		s.Parent = t.open[len(t.open)-1]
		s.Trace = t.spans[s.Parent].Trace
	}
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	t.open = append(t.open, id)
}

// end closes the innermost open span and returns how long it lasted.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[t.open[len(t.open)-1]]
	t.open = t.open[:len(t.open)-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// layerRow is one line of the per-layer table: all spans of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"` // total minus the time covered by child spans
}

// layerTable folds the spans by name. Children of one parent never
// overlap here (the recording goroutine is sequential), so a span's self
// time is its duration minus the sum of its children's.
func (t *tracer) layerTable() []layerRow {
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerRow{}
	for i, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		d := s.End - s.Start
		r.Spans++
		r.TotalMs += float64(d) / 1e6
		r.SelfMs += float64(d-childNs[i]) / 1e6
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
	return rows
}

// checkSpans verifies the span file's own invariants: every parent
// exists and closed, and every child lies inside its parent.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s) names parent %d, which does not exist", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) does not fit inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Trace != p.Trace {
			return fmt.Errorf("span %d (%s) has trace %d but its parent has %d", s.ID, s.Name, s.Trace, p.Trace)
		}
	}
	return nil
}

// writeTrace writes spans.jsonl, layers.json, obs.jsonl and metrics.json
// into dir.
func writeTrace(dir string, t *tracer, traces []*obs.Trace, layer map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "spans.jsonl"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "obs.jsonl"), func(w *bufio.Writer) error {
		for _, tr := range traces {
			if err := tr.WriteJSONL(w); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), t.layerTable()); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "metrics.json"), layer)
}

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// phaseCosts sums, over the traces of every system behind a door, the
// model rounds and IO time attributed to each core phase.
func phaseCosts(traces []*obs.Trace) (rounds, ioTime map[string]int64, totalIO int64) {
	rounds, ioTime = map[string]int64{}, map[string]int64{}
	for _, tr := range traces {
		totalIO += tr.Total.IOTime
		for _, ps := range tr.PhaseStats() {
			leaf := path.Base(ps.Path) // innermost phase of the slash-joined path
			rounds[leaf] += ps.M.Rounds
			ioTime[leaf] += ps.M.IOTime
		}
	}
	return rounds, ioTime, totalIO
}

// hostCounters are the process-wide counters read around the measured
// phases.
type hostCounters struct {
	cpu           time.Duration // user + system, getrusage
	mallocs       uint64
	allocBytes    uint64
	gcCPU, allCPU float64 // seconds, runtime/metrics
}

func readHost() hostCounters {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtimemetrics.Read(samples)
	return hostCounters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      samples[0].Value.Float64(),
		allCPU:     samples[1].Value.Float64(),
	}
}

// hostMetrics turns two readings and the operations between them into
// the host.* rows.
func hostMetrics(a, b hostCounters, ops int, out map[string]float64) {
	n := float64(max(ops, 1))
	out["host.cpu_us_per_op"] = micros(b.cpu-a.cpu) / n
	out["host.allocs_per_op"] = float64(b.mallocs-a.mallocs) / n
	out["host.alloc_bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / n
	if all := b.allCPU - a.allCPU; all > 0 {
		out["host.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / all
	}
}

// medianOf times fn reps times and returns the median.
func medianOf(reps int, fn func()) time.Duration {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0)
	}
	return quantile(d, 0.5)
}

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

// rungs times one layer at a time, outside any workload: the kernels on
// one batch of the pool, the sequential trie and its flat image on the
// stored keys, an empty round on p modules, and a one-key log append
// with the workload's flush policy.
func rungs(w *world, vals []uint64, p, reps int, scratch string, out map[string]float64) error {
	batch := w.cycles[0].lcp
	idx := make([]int, len(batch))
	out["bitstr.argsort_ns_per_key"] = nsPer(medianOf(reps, func() {
		for i := range idx {
			idx[i] = i
		}
		bitstr.ArgSort(batch, idx, runtime.GOMAXPROCS(0))
	}), len(batch))
	sink := 0
	out["bitstr.lcp_ns_per_pair"] = nsPer(medianOf(reps, func() {
		for i := 1; i < len(idx); i++ {
			sink += bitstr.LCP(batch[idx[i-1]], batch[idx[i]])
		}
	}), len(batch)-1)
	h := hashing.New(0x5eed, 0)
	out["hashing.prefix_hashes_ns_per_key"] = nsPer(medianOf(reps, func() {
		for _, k := range batch {
			sink += len(h.PrefixHashes(k, bitstr.WordBits))
		}
	}), len(batch))
	var qt *querytrie.QueryTrie
	out["querytrie.build_ns_per_key"] = nsPer(medianOf(reps, func() { qt = querytrie.Build(batch) }), len(batch))
	var buf []hashing.Value
	out["querytrie.node_hashes_ns_per_key"] = nsPer(medianOf(reps, func() { buf = qt.NodeHashes(h, buf) }), len(batch))

	stored := w.keys[:w.n]
	var seq *trie.Trie
	out["trie.insert_ns_per_key"] = nsPer(medianOf(reps, func() { seq = buildOracle(stored, vals) }), w.n)
	var flat *trie.Flat
	out["trie.flatten_ms"] = float64(medianOf(reps, func() { flat = trie.Flatten(seq) })) / 1e6
	gets := w.cycles[0].get
	gv, gf := make([]uint64, len(gets)), make([]bool, len(gets))
	out["trie.flat_get_ns_per_key"] = nsPer(medianOf(reps, func() { flat.GetBatch(gets, gv, gf) }), len(gets))

	sys := pim.NewSystem(p)
	tasks := make([]pim.Task, p)
	for m := range tasks {
		tasks[m] = pim.Task{Module: m, Run: func(*pim.Module) pim.Resp { return pim.Resp{} }}
	}
	const rounds = 200
	dispatch := medianOf(reps, func() {
		for i := 0; i < rounds; i++ {
			sys.Round(tasks)
		}
	}) / rounds
	sys.Close()
	out["pim.round_dispatch_us"] = micros(dispatch)

	dir, err := os.MkdirTemp(scratch, "walrung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(walOptions(dir, nil))
	if err != nil {
		return err
	}
	appends := make([]time.Duration, 0, 20*reps)
	for i := 0; i < cap(appends); i++ {
		t0 := time.Now()
		if _, err := log.Append(wal.OpInsert, stored[i:i+1], vals[i:i+1]); err != nil {
			log.Close()
			return err
		}
		appends = append(appends, time.Since(t0))
	}
	out["wal.append_sync_us"] = micros(quantile(appends, 0.5))
	if sink < 0 { // keeps the kernels' results alive
		return fmt.Errorf("impossible kernel sum %d", sink)
	}
	return log.Close()
}
