package main

// One pass of one workload — fresh set-up, the three measured phases,
// the checks — and the run that takes the median of its passes.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/trie"
)

// passConfig is what one pass needs to know.
type passConfig struct {
	w       *workloadDef
	sc      scale
	seed    int64
	scratch string
	oracle  *trie.Trie
	tr      *tracer // nil unless this is the traced pass
	host    bool    // read the host counters around the measured phases
}

// passResult is what one pass measured. layer holds the per-layer values
// the pass itself can see (a traced pass fills most of them, a pass with
// host set the host.* rows); throughput is the figure the trace overhead
// is taken from.
type passResult struct {
	e2e        map[string]float64
	samples    map[string]int
	tally      tally
	layer      map[string]float64
	throughput float64
	traces     []*obs.Trace
}

// untilDone stops a pipeline after a fixed number of completions, the
// warm-up's fixed work; untilElapsed after a fixed time.
func untilDone(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done >= n }
}

func untilElapsed(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, el time.Duration) bool { return el >= d }
}

func runPass(cfg passConfig) (res passResult, err error) {
	// A pass starts from nothing, the heap included: without this the
	// pages the previous pass freed are reused while the runtime is still
	// handing them back to the system, and memory-bound work (a flatten,
	// a batch of probes) ran up to half again slower in the second and
	// third pass than in the first.
	debug.FreeOSMemory()
	w, sc := cfg.w, cfg.sc
	n := w.n / sc.nDiv
	res.e2e, res.samples, res.layer = map[string]float64{}, map[string]int{}, map[string]float64{}
	served := w.kind != doorIndex

	// Set-up: generate, build, check one cycle against the oracle (which
	// also warms the batch path), warm the request path with fixed work.
	setupStart := time.Now()
	wd, vals := newWorld(cfg.seed, n, sc.batch)
	loadStart := time.Now()
	st, err := openStack(w, wd.keys[:n], vals, sc.batch, cfg.scratch, cfg.tr != nil)
	if err != nil {
		return res, err
	}
	loadTime := time.Since(loadStart)
	defer st.release()
	if err := checkCycle(st, &wd.cycles[0], cfg.oracle, &res.tally); err != nil {
		return res, fmt.Errorf("check cycle: %w", err)
	}
	cl := newClient(wd, st, w, cfg.seed)
	stopMigration := st.migrate()
	cl.pipeline(sc.warmWindow, untilDone(sc.warmRequests))
	if err := stopMigration(); err != nil {
		return res, err
	}
	runtime.GC()
	res.e2e["setup_s"] = time.Since(setupStart).Seconds()

	var host0 hostCounters
	if cfg.host {
		host0 = readHost()
	}

	// Batch phase, with the model-cost tracers attached around it alone.
	cycles := sc.servedCycles
	if !served {
		cycles = sc.indexCycles
	}
	var tracers []*obs.Tracer
	ix, _ := st.door.(*indexDoor)
	if cfg.tr != nil {
		for i, sys := range st.systems {
			tracers = append(tracers, obs.Attach(sys, fmt.Sprintf("%s/sys%02d", w.Name, i)))
		}
		if ix != nil {
			ix.tr, ix.split = cfg.tr, map[string]*splitTimes{}
		}
	}
	bt, err := batchPhase(st, wd, cycles, &res.tally, cfg.tr)
	if err != nil {
		return res, fmt.Errorf("batch phase: %w", err)
	}
	if cfg.tr != nil {
		for _, t := range tracers {
			t.Detach()
			res.traces = append(res.traces, t.Data())
		}
		if ix != nil {
			ix.tr = nil // the sync phase's one-key calls are not batch calls
			splitLayer(res.layer, ix.split, bt.results)
		}
	}
	batchMetrics(&res, bt, sc.batch, cfg.host)

	// Sync phase: one client, one request outstanding.
	syncDur := sc.phase
	if !served {
		syncDur /= 2 // the other half of an index pass's budget went to extra cycles
	}
	// Collect first, so that a cycle started by the batch phase's garbage
	// does not land on one pass's latencies and not on the next's.
	runtime.GC()
	stopMigration = st.migrate()
	lat := syncPhase(cl, syncDur, cfg.tr)
	res.e2e["get_p50_us"] = micros(quantile(lat.get, 0.5))
	res.e2e["put_p50_us"] = micros(quantile(lat.put, 0.5))
	res.samples["get_p50_us"], res.samples["put_p50_us"] = len(lat.get), len(lat.put)
	if cfg.host {
		res.layer["sync.get_p95_us"] = micros(quantile(lat.get, 0.95))
		res.layer["sync.put_p95_us"] = micros(quantile(lat.put, 0.95))
	}

	// Pipelined phase: a closed loop of window requests, and the served
	// workloads' keys_per_s (a request carries one key). The index has no
	// queue to fill: its keys_per_s is that of the batch calls.
	//
	// Migration stops first. Under load the router answers each shift of
	// the hot range with a burst of slot moves during which it completes
	// about 7 500 requests a second, against 20 000 once it is balanced;
	// the bursts last a second or two, recur every three or four, and where
	// they fall is a matter of timing, so the rate of a phase of a few
	// seconds ranged from 9 000 to 14 000 between the passes of one run.
	// What is measured is the router's request path at the placement the
	// sync phase's migrations left; what migration costs under load shows
	// in the traced run's shard.* counters, and needs a phase of tens of
	// seconds to show as a rate.
	ops := len(lat.get) + len(lat.put)
	if err := stopMigration(); err != nil {
		return res, err
	}
	if served {
		before, modelBefore := st.ServeStats(), totalRounds(st.Model())
		cl.next = cl.pipelineNext
		stop := untilElapsed(sc.phase)
		if w.pipelineRequests > 0 {
			stop = untilDone(w.pipelineRequests / sc.nDiv)
		}
		done, elapsed := cl.pipeline(sc.window, stop)
		res.e2e["keys_per_s"] = float64(done) / elapsed.Seconds()
		res.samples["keys_per_s"] = done
		ops += done
		if cfg.tr != nil {
			pipelineLayer(res.layer, before, st.ServeStats(), totalRounds(st.Model())-modelBefore, done, elapsed)
		}
	}
	res.throughput = res.e2e["keys_per_s"]
	if cfg.host {
		hostMetrics(host0, readHost(), ops+bt.keys, res.layer)
	}
	res.tally.add(cl.tally)

	// Checks after the measured phases.
	if served {
		if err := readBack(st, wd, sc.batch, &res.tally); err != nil {
			return res, err
		}
	}
	if cfg.tr != nil {
		stackLayer(res.layer, st, lat)
	}
	if w.kind == doorDurable {
		requests := st.ServeStats().Requests
		puts := float64(requests[serve.OpInsert] + requests[serve.OpDelete])
		logStats := st.door.(*serverDoor).srv.WAL().Stats()
		if err := st.Close(); err != nil {
			return res, fmt.Errorf("close durable server: %w", err)
		}
		recoverStart := time.Now()
		info, err := st.reopen(cfg.tr)
		if err != nil {
			return res, fmt.Errorf("restart: %w", err)
		}
		if cfg.tr != nil {
			res.layer["wal.recover_s"] = time.Since(recoverStart).Seconds()
			res.layer["wal.replayed_epochs"] = float64(len(info.Epochs))
			res.layer["wal.epochs_per_put"] = float64(logStats.Appends) / puts
			res.layer["wal.bytes_per_put"] = float64(logStats.Bytes) / puts
			res.layer["wal.fsyncs_per_put"] = float64(logStats.Fsyncs) / puts
		}
		if err := readBack(st, wd, sc.batch, &res.tally); err != nil {
			return res, fmt.Errorf("after restart: %w", err)
		}
	}

	res.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(wd)
	if err := st.Close(); err != nil {
		return res, fmt.Errorf("close: %w", err)
	}
	if cfg.tr != nil {
		var words int
		for _, sys := range st.systems {
			total, _ := sys.SpaceWords()
			words += total
		}
		res.layer["pim.space_words_per_key"] = float64(words) / float64(n)
		res.layer["core.load_us_per_key"] = micros(loadTime) / float64(n)
		if err := tracedLayer(&res, bt); err != nil {
			return res, err
		}
	}
	return res, nil
}

// batchMetrics fills the rows the batch phase gives: the model counters,
// keys_per_s (which a served pass overwrites with its pipelined rate) and,
// on the reference pass of a traced run, the per-op rates.
func batchMetrics(res *passResult, bt batchTimes, batch int, perOp bool) {
	rate := func(keys int, d time.Duration) float64 { return float64(keys) / d.Seconds() }
	res.e2e["keys_per_s"] = rate(bt.keys, bt.wall)
	res.samples["keys_per_s"] = bt.calls
	res.e2e["model_rounds_per_batch"] = float64(bt.model.Rounds) / float64(bt.calls)
	res.e2e["model_io_time_per_key"] = float64(bt.model.IOTime) / float64(bt.keys)
	res.e2e["model_pim_time_per_key"] = float64(bt.model.PIMTime) / float64(bt.keys)
	res.e2e["model_io_balance"] = bt.ioBalance
	if perOp {
		res.layer["batch.lcp_keys_per_s"] = rate(batch, quantile(bt.lcp, 0.5))
		res.layer["batch.get_keys_per_s"] = rate(batch, quantile(bt.get, 0.5))
		res.layer["batch.update_keys_per_s"] = rate(2*batch, quantile(bt.update, 0.5))
	}
}

// splitLayer turns the index door's prepare | execute sums into the
// core.* rows.
func splitLayer(l map[string]float64, split map[string]*splitTimes, results int) {
	var all splitTimes
	for _, st := range split {
		all.prepare += st.prepare
		all.execute += st.execute
		all.keys += st.keys
	}
	l["core.prepare_us_per_key"] = micros(all.prepare) / float64(max(all.keys, 1))
	l["core.prepare_share"] = float64(all.prepare) / float64(max(all.prepare+all.execute, 1))
	for _, op := range []string{"lcp", "get", "insert", "delete"} {
		if st := split[op]; st != nil {
			l["core."+op+"_execute_us_per_key"] = micros(st.execute) / float64(max(st.keys, 1))
		}
	}
	if st := split["subtree"]; st != nil {
		l["core.subtree_us_per_result"] = micros(st.prepare+st.execute) / float64(max(results, 1))
	}
}

// tracedLayer derives the rows that come from the batch phase of a
// traced pass: the model-cost attribution by core phase (after
// Trace.Check) and the pim.* ratios.
func tracedLayer(res *passResult, bt batchTimes) error {
	l := res.layer
	for _, tr := range res.traces {
		if err := tr.Check(); err != nil {
			return fmt.Errorf("obs trace %s: %w", tr.Label, err)
		}
	}
	rounds, ioTime, totalIO := phaseCosts(res.traces)
	for _, p := range corePhases {
		l["core.phase."+p+".rounds_per_batch"] = float64(rounds[p]) / float64(bt.calls)
		l["core.phase."+p+".io_time_share"] = float64(ioTime[p]) / math.Max(float64(totalIO), 1)
	}
	l["pim.rounds_per_s"] = float64(bt.model.Rounds) / bt.wall.Seconds()
	l["pim.io_words_per_key"] = float64(bt.model.IOWords) / float64(bt.keys)
	l["pim.work_balance"] = bt.workBalance
	return nil
}

// pipelineLayer turns the serving counters around the pipelined phase
// into the serve.* throughput rows.
func pipelineLayer(l map[string]float64, a, b serve.Stats, rounds int64, done int, dur time.Duration) {
	readKeys := delta(a, b, serve.OpGet) + delta(a, b, serve.OpLCP) + delta(a, b, serve.OpSubtree)
	writeKeys := delta(a, b, serve.OpInsert) + delta(a, b, serve.OpDelete)
	readEpochs, writeEpochs := float64(b.ReadEpochs-a.ReadEpochs), float64(b.WriteEpochs-a.WriteEpochs)
	l["serve.keys_per_read_epoch"] = readKeys / math.Max(readEpochs, 1)
	l["serve.keys_per_write_epoch"] = writeKeys / math.Max(writeEpochs, 1)
	l["serve.read_epochs_per_s"] = readEpochs / dur.Seconds()
	l["serve.write_epochs_per_s"] = writeEpochs / dur.Seconds()
	deduped := float64(b.DedupedKeys - a.DedupedKeys)
	l["serve.dedupe_ratio"] = deduped / math.Max(readKeys+deduped, 1)
	l["serve.model_rounds_per_kop"] = float64(rounds) / math.Max(float64(done), 1) * 1000
}

// delta is the number of unique keys of one op sent to the index
// between two readings.
func delta(a, b serve.Stats, op serve.Op) float64 {
	return float64(b.KeysExecuted[op] - a.KeysExecuted[op])
}

// stackLayer reads what the still-open stack of a traced pass exposes:
// submit time at the door, the serve histograms, the router's and the
// log's counters.
func stackLayer(l map[string]float64, st *stack, lat syncLatencies) {
	submit := micros(quantile(lat.submit, 0.5))
	switch st.w.kind {
	case doorRouter:
		l["shard.submit_us"] = submit
		rs := st.router.Stats()
		l["shard.migrations"] = float64(rs.Migrations)
		l["shard.moved_keys"] = float64(rs.MovedKeys)
		l["shard.load_imbalance"] = rs.LastImbalance
	case doorDurable:
		l["serve.submit_us"] = submit
	}
	if st.reg == nil || st.w.kind == doorIndex {
		return
	}
	hist := func(name string) metrics.HistSnapshot {
		var sum metrics.HistSnapshot
		if st.router == nil {
			return st.reg.Histogram(name, "").Snapshot()
		}
		for i := 0; i < st.router.Shards(); i++ {
			sum = sum.Merge(st.reg.Histogram(name, "", metrics.L("shard", fmt.Sprint(i))).Snapshot())
		}
		return sum
	}
	l["serve.linger_p50_us"] = hist("pimtrie_serve_linger_seconds").Quantile(0.5) * 1e6
	l["serve.prepare_p50_us"] = hist("pimtrie_serve_prepare_seconds").Quantile(0.5) * 1e6
	l["serve.execute_p50_us"] = hist("pimtrie_serve_execute_seconds").Quantile(0.5) * 1e6
	if st.w.kind == doorDurable {
		ck := st.reg.Histogram("pimtrie_checkpoint_seconds", "").Snapshot()
		l["wal.checkpoints"] = float64(st.reg.Counter("pimtrie_checkpoint_writes_total", "").Value())
		l["wal.checkpoint_ms"] = ck.Quantile(0.5) * 1e3
	}
}

// runResult is one workload's run: per metric the median over the
// passes, with the per-pass values and sample counts beside it.
type runResult struct {
	Workload  string                 `json:"workload"`
	N         int                    `json:"n"`
	P         int                    `json:"p"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failure   string                 `json:"first_failure,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Passes  []float64 `json:"passes,omitempty"`
	Samples []int     `json:"samples,omitempty"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sameDigits reports whether a and b agree to nine significant digits.
func sameDigits(a, b float64) bool {
	return fmt.Sprintf("%.8e", a) == fmt.Sprintf("%.8e", b)
}

// foldPasses takes, per metric, the best pass of a timing metric and the
// median of the passes of any other. On index_batch the model metrics must
// be identical in every pass: one caller, fixed work, a deterministic
// simulator.
func foldPasses(w *workloadDef, n int, passes []passResult) runResult {
	out := runResult{Workload: w.Name, N: n, P: w.p, Metrics: map[string]metricValue{}}
	var t tally
	for _, p := range passes {
		t.add(p.tally)
	}
	for _, d := range endToEnd {
		mv := metricValue{Unit: d.Unit}
		for _, p := range passes {
			mv.Passes = append(mv.Passes, p.e2e[d.Name])
			mv.Samples = append(mv.Samples, p.samples[d.Name])
		}
		switch {
		case !timingMetrics[d.Name]:
			mv.Value = median(mv.Passes)
		case d.Better == up:
			mv.Value = slices.Max(mv.Passes)
		default:
			mv.Value = slices.Min(mv.Passes)
		}
		out.Metrics[d.Name] = mv
	}
	if w.kind == doorIndex {
		for _, name := range modelMetrics {
			for _, v := range out.Metrics[name].Passes[1:] {
				t.op()
				if !sameDigits(v, out.Metrics[name].Passes[0]) {
					t.fail("%s differs between passes of one run: %v", name, out.Metrics[name].Passes)
				}
			}
		}
	}
	out.Attempted, out.Failed, out.Failure = t.attempted, t.failed, t.firstFailure
	out.Correct = t.failed == 0
	return out
}
