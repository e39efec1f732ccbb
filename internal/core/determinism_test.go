package core

// Determinism regression test for the wall-clock fast path: the PIM
// Model metrics and every query result must be bit-identical whatever
// the one worker cap (host workers and module executors) is.
// Parallelism is an implementation detail of the simulator; the model's
// costs are defined by the round structure alone.

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// suiteResult captures everything observable from one full run of the
// operation mix.
type suiteResult struct {
	metrics  pim.Metrics
	lcp1     []int
	values   []uint64
	found    []bool
	deleted  []bool
	subtrees [][]trie.KV
	lcp2     []int
	stats    Stats
}

// runOpSuite drives Build, LCP, Insert, Get, Delete, SubtreeQueryBatch
// and a final LCP with the one worker cap (host phases and module
// programs) fixed to par. Extra system options (e.g. a fault plan)
// apply on top of the fixed seed.
func runOpSuite(par int, sysOpts ...pim.Option) (suiteResult, Health) {
	return runOpSuiteCfg(par, Config{HashSeed: 1}, sysOpts...)
}

func runOpSuiteCfg(par int, cfg Config, sysOpts ...pim.Option) (suiteResult, Health) {
	prev := parallel.SetMaxProcs(par)
	defer parallel.SetMaxProcs(prev)

	const (
		p     = 16
		n     = 3000
		batch = 256
	)
	g := workload.New(1)
	keys := g.VarLen(n, 48, 160)
	values := g.Values(len(keys))
	queries := g.PrefixQueries(keys, batch, 16)
	fresh := g.FixedLen(batch, 96)
	freshVals := g.Values(len(fresh))

	opts := append([]pim.Option{pim.WithSeed(1)}, sysOpts...)
	sys := pim.NewSystem(p, opts...)
	defer sys.Close()
	pt := New(sys, cfg)
	pt.Build(keys, values)

	var r suiteResult
	r.lcp1 = pt.LCP(queries)
	pt.Insert(fresh, freshVals)
	r.values, r.found = pt.Get(fresh)
	r.deleted = pt.Delete(keys[:batch])
	prefixes := make([]bitstr.String, 8)
	for i := range prefixes {
		prefixes[i] = keys[batch+i*13].Prefix(24)
	}
	r.subtrees = pt.SubtreeQueryBatch(prefixes)
	r.lcp2 = pt.LCP(queries)
	r.metrics = sys.Metrics()
	r.stats = pt.CollectStats()
	return r, pt.Health()
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	serial, _ := runOpSuite(1)
	serialAgain, _ := runOpSuite(1)
	wide, _ := runOpSuite(8)

	if !reflect.DeepEqual(serial, serialAgain) {
		t.Fatalf("serial run is not reproducible with a fixed seed")
	}
	if !reflect.DeepEqual(serial.metrics, wide.metrics) {
		t.Errorf("metrics differ between 1 and 8 workers:\n serial: %+v\n wide:   %+v",
			serial.metrics, wide.metrics)
	}
	if !reflect.DeepEqual(serial.lcp1, wide.lcp1) || !reflect.DeepEqual(serial.lcp2, wide.lcp2) {
		t.Errorf("LCP results differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(serial.values, wide.values) || !reflect.DeepEqual(serial.found, wide.found) {
		t.Errorf("Get results differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(serial.deleted, wide.deleted) {
		t.Errorf("Delete results differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(serial.subtrees, wide.subtrees) {
		t.Errorf("Subtree results differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(serial.stats, wide.stats) {
		t.Errorf("stats differ between 1 and 8 workers:\n serial: %+v\n wide:   %+v",
			serial.stats, wide.stats)
	}
}

// TestDeterminismAcrossParallelismWithFaults is the same contract under
// an active fault plan: injected crashes, stragglers and truncations —
// and the recoveries they force — must leave every metric, every
// answer, and the recovery cost itself bit-identical no matter how many
// workers run.
func TestDeterminismAcrossParallelismWithFaults(t *testing.T) {
	plan := pim.FaultPlan{
		Seed:         21,
		Events:       []pim.FaultEvent{{Round: 25, Kind: pim.FaultCrash, Module: -1}},
		CrashProb:    0.001,
		StraggleProb: 0.01,
		TruncateProb: 0.004,
		MaxCrashes:   2,
	}
	serial, hSerial := runOpSuite(1, pim.WithFaults(plan))
	serialAgain, hAgain := runOpSuite(1, pim.WithFaults(plan))
	wide, hWide := runOpSuite(8, pim.WithFaults(plan))

	if !reflect.DeepEqual(serial, serialAgain) || !reflect.DeepEqual(hSerial, hAgain) {
		t.Fatalf("faulted serial run is not reproducible with a fixed seed")
	}
	if !reflect.DeepEqual(serial.metrics, wide.metrics) {
		t.Errorf("faulted metrics differ between 1 and 8 workers:\n serial: %+v\n wide:   %+v",
			serial.metrics, wide.metrics)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("faulted results differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(hSerial, hWide) {
		t.Errorf("recovery status differs between 1 and 8 workers:\n serial: %+v\n wide:   %+v",
			hSerial, hWide)
	}
	if hSerial.Recoveries < 1 {
		t.Fatalf("fault plan injected no recovery (health %+v); the test is vacuous", hSerial)
	}
	if hSerial.RecoveryCost.Rounds <= 0 || hSerial.RecoveryCost.IOTime <= 0 {
		t.Errorf("recovery cost not accounted: %+v", hSerial.RecoveryCost)
	}
}

// sizeSeqResult is everything observable from one run of the batch-size
// sequence: every answer of every batch and the metrics after each.
type sizeSeqResult struct {
	lcps     [][]int
	values   [][]uint64
	found    [][]bool
	deleted  [][]bool
	subtrees [][][]trie.KV
	mixed    []Result
	metrics  []pim.Metrics
	stats    Stats
}

// runSizeSequence drives one index over the keys gen draws through
// batches of 4096, 1, 3, 64, 1, 4096 and 1 keys — LCP, Get, Insert,
// Delete and SubtreeQueryBatch at every size, then one Apply of all
// five sections over up to 16 of the keys — checking each answer
// against the sequential trie oracle and Validate() after every mutation.
// The per-batch scratch is sized by the largest batch so far, so a small
// batch after a large one is where state left behind by the large one
// would show. Batches hold duplicates, keys that are prefixes of one
// another, extensions of stored keys and the empty key.
func runSizeSequence(t *testing.T, par int, cfg Config, gen func(*workload.Gen) []bitstr.String) sizeSeqResult {
	t.Helper()
	prev := parallel.SetMaxProcs(par)
	defer parallel.SetMaxProcs(prev)

	g := workload.New(7)
	keys := gen(g)
	values := g.Values(len(keys))
	sys := pim.NewSystem(16, pim.WithSeed(3))
	defer sys.Close()
	pt := New(sys, cfg)
	pt.Build(keys, values)
	oracle := trie.New()
	for i, k := range keys {
		oracle.Insert(k, values[i])
	}

	r := rand.New(rand.NewSource(9))
	var res sizeSeqResult
	for step, n := range []int{4096, 1, 3, 64, 1, 4096, 1} {
		q := make([]bitstr.String, n)
		for i := range q {
			k := keys[r.Intn(len(keys))]
			switch r.Intn(5) {
			case 0:
				q[i] = k.Prefix(r.Intn(k.Len() + 1))
			case 1:
				q[i] = k.Concat(randomKey(r, 30))
			case 2:
				q[i] = bitstr.Empty
			default:
				q[i] = k
			}
			if i > 0 && r.Intn(8) == 0 {
				q[i] = q[r.Intn(i)]
			}
		}
		lcp := pt.LCP(q)
		vals, found := pt.Get(q)
		for i, k := range q {
			if want := oracle.LCPLen(k); lcp[i] != want {
				t.Fatalf("step %d (%d keys): LCP(%q) = %d, want %d", step, n, k, lcp[i], want)
			}
			if wv, wok := oracle.Get(k); found[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("step %d (%d keys): Get(%q) = %d,%v want %d,%v", step, n, k, vals[i], found[i], wv, wok)
			}
		}
		fresh := make([]uint64, n)
		for i := range fresh {
			fresh[i] = r.Uint64()
			oracle.Insert(q[i], fresh[i])
		}
		pt.Insert(q, fresh)
		if err := pt.Validate(); err != nil {
			t.Fatalf("step %d (%d keys): after Insert: %v", step, n, err)
		}
		del := pt.Delete(q[:n/2+1])
		for i, k := range q[:n/2+1] {
			if want := oracle.Delete(k); del[i] != want {
				t.Fatalf("step %d (%d keys): Delete(%q) = %v, want %v", step, n, k, del[i], want)
			}
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("step %d (%d keys): after Delete: %v", step, n, err)
		}
		if pt.KeyCount() != oracle.KeyCount() {
			t.Fatalf("step %d (%d keys): KeyCount = %d, oracle %d", step, n, pt.KeyCount(), oracle.KeyCount())
		}
		prefixes := q[:min(n, 4)]
		subs := pt.SubtreeQueryBatch(prefixes)
		for i, p := range prefixes {
			want := oracle.SubtreeKeys(p)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(subs[i], want) {
				t.Fatalf("step %d (%d keys): Subtree(%q) has %d pairs, oracle %d", step, n, p, len(subs[i]), len(want))
			}
		}
		// One batch of every section: its reads see the state before it,
		// then its inserts land, then its deletes — of keys it also reads
		// and inserts.
		m := q[:min(n, 16)]
		mixVals := make([]uint64, len(m))
		for i := range mixVals {
			mixVals[i] = r.Uint64()
		}
		mixed := pt.Apply(Batch{Gets: m, LCPs: m, Subtrees: m[:min(len(m), 2)], Inserts: m, Values: mixVals, Deletes: m[:len(m)/2+1]})
		for i, k := range m {
			if wv, wok := oracle.Get(k); mixed.Found[i] != wok || (wok && mixed.Values[i] != wv) || mixed.LCPs[i] != oracle.LCPLen(k) {
				t.Fatalf("step %d (%d keys): mixed batch read %q = %d,%v,%d; serial order says %d,%v,%d",
					step, n, k, mixed.Values[i], mixed.Found[i], mixed.LCPs[i], wv, wok, oracle.LCPLen(k))
			}
		}
		for i, p := range m[:len(mixed.Subtrees)] {
			if want := oracle.SubtreeKeys(p); len(mixed.Subtrees[i]) != len(want) {
				t.Fatalf("step %d (%d keys): mixed batch Subtree(%q) has %d pairs, serial order %d", step, n, p, len(mixed.Subtrees[i]), len(want))
			}
		}
		for i, k := range m {
			oracle.Insert(k, mixVals[i])
		}
		for i, k := range m[:len(m)/2+1] {
			if want := oracle.Delete(k); mixed.Deleted[i] != want {
				t.Fatalf("step %d (%d keys): mixed batch Delete(%q) = %v, serial order says %v", step, n, k, mixed.Deleted[i], want)
			}
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("step %d (%d keys): after the mixed batch: %v", step, n, err)
		}
		if pt.KeyCount() != oracle.KeyCount() {
			t.Fatalf("step %d (%d keys): KeyCount = %d after the mixed batch, oracle %d", step, n, pt.KeyCount(), oracle.KeyCount())
		}
		res.mixed = append(res.mixed, mixed)
		res.lcps = append(res.lcps, lcp)
		res.values = append(res.values, vals)
		res.found = append(res.found, found)
		res.deleted = append(res.deleted, del)
		res.subtrees = append(res.subtrees, subs)
		res.metrics = append(res.metrics, sys.Metrics())
	}
	res.stats = pt.CollectStats()
	return res
}

// TestSizeSequenceDifferential checks the size sequence against the
// oracle and requires bit-identical answers and metrics at 1 and 8
// workers — under -race this is the check that the block round's module
// programs share nothing. The narrow-hash run adds false-positive hits
// and re-hashes over the same scratch; the low pull threshold sends
// most pieces down the pull paths. The deep run's region windows reach
// words past their start, so region probes take the pivot-class path,
// class indexes are rebuilt after every mutation, and pulled regions
// are probed through them by parallel host workers.
func TestSizeSequenceDifferential(t *testing.T) {
	shallow := func(g *workload.Gen) []bitstr.String {
		keys := g.VarLen(5000, 8, 200)
		keys = append(keys, g.SharedPrefix(1500, 90, 60)...)
		return append(keys, g.PrefixChain(300, 7)...)
	}
	deep := func(g *workload.Gen) []bitstr.String {
		return append(g.FixedLen(1500, 1024), g.SharedPrefix(500, 2048, 512)...)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		keys func(*workload.Gen) []bitstr.String
	}{
		{"default", Config{HashSeed: 5}, shallow},
		{"narrow-hash", Config{HashSeed: 5, HashWidth: 20, MaxRedo: 80}, shallow},
		{"pull-heavy", Config{HashSeed: 5, PullThreshold: 40, BlockWords: 32}, shallow},
		{"deep", Config{HashSeed: 5}, deep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := runSizeSequence(t, 1, tc.cfg, tc.keys)
			wide := runSizeSequence(t, 8, tc.cfg, tc.keys)
			if !reflect.DeepEqual(serial.metrics, wide.metrics) {
				t.Errorf("metrics differ between 1 and 8 workers:\n serial: %+v\n wide:   %+v",
					serial.metrics[len(serial.metrics)-1], wide.metrics[len(wide.metrics)-1])
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Errorf("answers differ between 1 and 8 workers")
			}
		})
	}
}
