// Command bench is the repository's one benchmark: three workloads, each
// driving the stack through its own front door, nine end-to-end metrics
// per workload, and a separate traced run for the per-layer numbers.
// README.md has the catalogue; BENCHMARK.json at the repository root is
// generated from catalog.go.
//
//	bash bench/run.sh --workload router_strong --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh                       # all three, passes interleaved
//	bash bench/run.sh -out runs.jsonl       # append the run to a result file
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/pimlab/pimtrie/internal/trie"
)

// env is the fingerprint written into every result document.
type env struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Passes       int     `json:"passes"`
	PhaseSeconds float64 `json:"phase_seconds"`
	IndexCycles  int     `json:"index_cycles"`
	ServedCycles int     `json:"served_cycles"`
	Traced       bool    `json:"traced"`
	When         string  `json:"when"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// runDoc is one line of a result file: one invocation of the benchmark.
type runDoc struct {
	Env     env         `json:"env"`
	Results []runResult `json:"results"`
}

// contractLine is the last line of standard output for one workload, in
// the driver's shape.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", runSeconds, "seconds one run measures, over its three passes")
	trace := fs.Int("trace", 0, "1 makes the traced run and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "tiny scale, one pass: a smoke test, not a measurement")
	scratch := fs.String("scratch", ".bench_build", "directory for the log of durable_write and the trace files")
	out := fs.String("out", "", "append the run as one JSON line to this result file")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	// One processor for the whole process. The reference box is two
	// virtual cores of a shared host: two busy threads there ran at
	// anything from full to two-thirds speed from one five-second window
	// to the next, while one thread kept its speed to 2 %. So the stack is
	// measured as it runs on one core, and what its goroutines cost each
	// other shows as work, not as luck with the host's scheduler
	// (README.md, "One processor").
	runtime.GOMAXPROCS(1)
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	var ws []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := workloadByName(*workload); w != nil {
		ws = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workload)
		return 2
	}
	sc := fromSeconds(*seconds)
	if *quick {
		sc = quickScale()
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	start := time.Now()
	doc := runDoc{Env: env{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Passes: sc.passes, PhaseSeconds: sc.phase.Seconds(),
		IndexCycles: sc.indexCycles, ServedCycles: sc.servedCycles, Traced: *trace == 1,
		When: start.UTC().Format(time.RFC3339),
	}}
	var err error
	if *trace == 1 {
		doc.Results, err = runTraced(ws, sc, *seed, *scratch)
	} else {
		doc.Results, err = runUntraced(ws, sc, *seed, *scratch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	doc.Env.WallSeconds = time.Since(start).Seconds()

	if *out != "" {
		if err := appendDoc(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  passes %d  phase %.2fs  wall %.1fs\n",
		doc.Env.Commit, doc.Env.GoVersion, doc.Env.NProc, doc.Env.GOMAXPROCS, *seed, sc.passes, sc.phase.Seconds(), doc.Env.WallSeconds)
	for _, r := range doc.Results {
		printResult(r, *trace == 1)
		if !r.Correct {
			code = 1
		}
	}
	for _, r := range doc.Results {
		line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
		for name, mv := range r.Metrics {
			line.Metrics[name] = metricValue{Value: mv.Value, Unit: mv.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(b))
	}
	return code
}

// runUntraced makes the end-to-end run: pass 1 of every workload, then
// pass 2, then pass 3, each with a fresh set-up, so a slow episode of the
// machine lands on one pass of each workload and the median drops it.
func runUntraced(ws []*workloadDef, sc scale, seed int64, scratch string) ([]runResult, error) {
	passes := make([][]passResult, len(ws))
	cfgs := make([]passConfig, len(ws))
	for i, w := range ws {
		cfgs[i] = newPassConfig(w, sc, seed, scratch)
	}
	for p := 0; p < sc.passes; p++ {
		for i, w := range ws {
			res, err := runPass(cfgs[i])
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", w.Name, p+1, err)
			}
			passes[i] = append(passes[i], res)
		}
	}
	var out []runResult
	for i, w := range ws {
		out = append(out, foldPasses(w, w.n/sc.nDiv, passes[i]))
	}
	return out, nil
}

// newPassConfig builds what the passes of one workload share; the oracle
// is generated from the same seed the passes use, once.
func newPassConfig(w *workloadDef, sc scale, seed int64, scratch string) passConfig {
	n := w.n / sc.nDiv
	wd, vals := newWorld(seed, n, sc.batch)
	oracle := buildOracle(wd.keys[:n], vals)
	if oracleHook != nil {
		oracleHook(oracle)
	}
	return passConfig{w: w, sc: sc, seed: seed, scratch: scratch, oracle: oracle}
}

// oracleHook lets main_test.go plant a wrong expectation.
var oracleHook func(oracle *trie.Trie)

// runTraced makes the traced run of each workload: one untraced pass as
// the reference for overhead and host counters, one traced pass, and the
// layer rungs. End-to-end metrics are never taken from it.
func runTraced(ws []*workloadDef, sc scale, seed int64, scratch string) ([]runResult, error) {
	var out []runResult
	for _, w := range ws {
		cfg := newPassConfig(w, sc, seed, scratch)
		cfg.host = true
		ref, err := runPass(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s reference pass: %w", w.Name, err)
		}
		cfg.host, cfg.tr = false, newTracer()
		traced, err := runPass(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", w.Name, err)
		}
		layer := traced.layer
		for k, v := range ref.layer {
			layer[k] = v
		}
		layer["trace_overhead_frac"] = 1 - traced.throughput/ref.throughput

		n := w.n / sc.nDiv
		wd, vals := newWorld(seed, n, sc.batch)
		if err := rungs(wd, vals, w.p, sc.rungReps, scratch, layer); err != nil {
			return nil, fmt.Errorf("%s rungs: %w", w.Name, err)
		}
		if w.kind != doorIndex {
			// The prepare | execute split needs the index in hand: a rung
			// on a bare index holding the workload's keys.
			if err := coreRung(w, cfg, layer); err != nil {
				return nil, fmt.Errorf("%s core rung: %w", w.Name, err)
			}
		}
		if w.kind == doorRouter {
			direct, err := directGetP50(w, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s standalone server: %w", w.Name, err)
			}
			layer["shard.router_overhead_us"] = traced.e2e["get_p50_us"] - direct
		}
		if err := checkSpans(cfg.tr.spans); err != nil {
			return nil, fmt.Errorf("%s spans: %w", w.Name, err)
		}
		if err := writeTrace(filepath.Join(scratch, "trace", w.Name), cfg.tr, traced.traces, layer); err != nil {
			return nil, fmt.Errorf("%s trace files: %w", w.Name, err)
		}

		var t tally
		t.add(ref.tally)
		t.add(traced.tally)
		r := runResult{Workload: w.Name, N: n, P: w.p, Metrics: map[string]metricValue{},
			Attempted: t.attempted, Failed: t.failed, Failure: t.firstFailure, Correct: t.failed == 0}
		for _, d := range perLayer {
			r.Metrics[d.Name] = metricValue{Value: layer[d.Name], Unit: d.Unit}
		}
		out = append(out, r)
	}
	return out, nil
}

// coreRung runs the batch phase of a traced pass on a bare index, for
// the core.* rows of a workload whose door hides its index.
func coreRung(w *workloadDef, cfg passConfig, layer map[string]float64) error {
	def := *w
	def.kind = doorIndex
	n := w.n / cfg.sc.nDiv
	wd, vals := newWorld(cfg.seed, n, cfg.sc.batch)
	loadStart := time.Now()
	st, err := openStack(&def, wd.keys[:n], vals, cfg.sc.batch, cfg.scratch, false)
	if err != nil {
		return err
	}
	defer st.release()
	layer["core.load_us_per_key"] = micros(time.Since(loadStart)) / float64(n)
	ix := st.door.(*indexDoor)
	ix.tr, ix.split = newTracer(), map[string]*splitTimes{}
	var t tally
	bt, err := batchPhase(st, wd, cfg.sc.servedCycles, &t, ix.tr)
	if err != nil {
		return err
	}
	splitLayer(layer, ix.split, bt.results)
	return nil
}

// directGetP50 is the sync-phase median get, under the same traffic,
// through one standalone serve.Server holding the router workload's keys:
// what the router's get_p50_us would be without the router.
func directGetP50(w *workloadDef, cfg passConfig) (float64, error) {
	def := *w
	def.kind = doorServer
	n := w.n / cfg.sc.nDiv
	wd, vals := newWorld(cfg.seed, n, cfg.sc.batch)
	st, err := openStack(&def, wd.keys[:n], vals, cfg.sc.batch, cfg.scratch, false)
	if err != nil {
		return 0, err
	}
	defer st.release()
	lat := syncPhase(newClient(wd, st, &def, cfg.seed), cfg.sc.phase/2, nil)
	return micros(quantile(lat.get, 0.5)), nil
}

func appendDoc(path string, doc runDoc) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints every metric of one workload by name and unit, the
// median beside its per-pass values and sample counts.
func printResult(r runResult, traced bool) {
	fmt.Printf("\n== %s  n=%d P=%d  attempted=%d failed=%d\n", r.Workload, r.N, r.P, r.Attempted, r.Failed)
	if r.Failure != "" {
		fmt.Printf("   first failure: %s\n", r.Failure)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		mv := r.Metrics[d.Name]
		if traced {
			fmt.Printf("%-12s", d.Layer)
		}
		fmt.Printf("%-44s %14.6g %-7s", d.Name, mv.Value, mv.Unit)
		if len(mv.Passes) > 0 {
			fmt.Printf("  passes %v  samples %v", compact(mv.Passes), mv.Samples)
		}
		fmt.Println()
	}
}

func compact(v []float64) []string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.6g", x)
	}
	return s
}
