package core

// Recovery tests: with a fixed fault seed, crashing any single module
// mid-workload must leave every observable answer bit-identical to a
// fault-free run of the same script, with the repair cost visible in
// Health and attributed to a "recover" span that passes the obs
// conservation check.

import (
	"reflect"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// scriptAnswers is every observable result of the fixed recovery
// workload; faulted runs must reproduce it bit-identically.
type scriptAnswers struct {
	lcp1     []int
	values   []uint64
	found    []bool
	deleted  []bool
	subtrees [][]trie.KV
	lcp2     []int
	dump     []trie.KV
	n        int
}

// scriptRounds brackets the workload's operations by the system's round
// counter, so tests can aim a scheduled fault at a specific operation.
type scriptRounds struct {
	afterNew, afterBuild, afterLCP1, total int64
}

// runRecoveryScript drives a fixed mixed workload on a recoverable
// index, optionally under a fault plan. The caller closes the returned
// system.
func runRecoveryScript(plan *pim.FaultPlan) (scriptAnswers, scriptRounds, *PIMTrie, *pim.System) {
	const (
		p     = 8
		n     = 900
		batch = 128
	)
	g := workload.New(7)
	keys := g.VarLen(n, 40, 120)
	values := g.Values(len(keys))
	queries := g.PrefixQueries(keys, batch, 12)
	fresh := g.FixedLen(batch, 80)
	freshVals := g.Values(len(fresh))

	opts := []pim.Option{pim.WithSeed(1)}
	if plan != nil {
		opts = append(opts, pim.WithFaults(*plan))
	}
	sys := pim.NewSystem(p, opts...)
	pt := New(sys, Config{HashSeed: 1, Recoverable: true})

	var a scriptAnswers
	var r scriptRounds
	r.afterNew = sys.Metrics().Rounds
	pt.Build(keys, values)
	r.afterBuild = sys.Metrics().Rounds
	a.lcp1 = pt.LCP(queries)
	r.afterLCP1 = sys.Metrics().Rounds
	pt.Insert(fresh, freshVals)
	a.values, a.found = pt.Get(fresh)
	a.deleted = pt.Delete(keys[:batch])
	prefixes := make([]bitstr.String, 8)
	for i := range prefixes {
		prefixes[i] = keys[batch+i*17].Prefix(20)
	}
	a.subtrees = pt.SubtreeQueryBatch(prefixes)
	a.lcp2 = pt.LCP(queries)
	a.dump = pt.SubtreeQuery(bitstr.Empty)
	a.n = pt.KeyCount()
	r.total = sys.Metrics().Rounds
	return a, r, pt, sys
}

// checkRecovered asserts the faulted run healed: answers equal the
// oracle's, the structure validates, and Health reports a completed,
// costed recovery.
func checkRecovered(t *testing.T, oracle, got scriptAnswers, pt *PIMTrie) Health {
	t.Helper()
	if !reflect.DeepEqual(got, oracle) {
		t.Errorf("answers diverge from the fault-free oracle")
	}
	if err := pt.Validate(); err != nil {
		t.Errorf("Validate after recovery: %v", err)
	}
	h := pt.Health()
	if h.Recoveries < 1 {
		t.Errorf("Health.Recoveries = %d, want >= 1", h.Recoveries)
	}
	if h.Degraded || len(h.DeadModules) != 0 {
		t.Errorf("index still degraded: %+v", h)
	}
	if h.RecoveryCost.Rounds <= 0 || h.RecoveryCost.IOTime <= 0 {
		t.Errorf("recovery cost not accounted: %+v", h.RecoveryCost)
	}
	return h
}

func TestCrashAnyModuleMatchesOracle(t *testing.T) {
	oracle, rounds, opt, osys := runRecoveryScript(nil)
	defer osys.Close()
	if err := opt.Validate(); err != nil {
		t.Fatalf("oracle Validate: %v", err)
	}
	if h := opt.Health(); h.Recoveries != 0 || h.RecoveryCost.Rounds != 0 {
		t.Fatalf("fault-free run reports recovery activity: %+v", h)
	}
	mid := (rounds.afterBuild + rounds.total) / 2
	for mi := 0; mi < 8; mi++ {
		plan := &pim.FaultPlan{Events: []pim.FaultEvent{
			{Round: mid, Kind: pim.FaultCrash, Module: mi},
		}}
		got, _, pt, sys := runRecoveryScript(plan)
		h := checkRecovered(t, oracle, got, pt)
		if h.Crashes != 1 || h.ModulesLost < 1 {
			t.Errorf("module %d: fault counts off: %+v", mi, h)
		}
		sys.Close()
	}
}

// TestFullRebuildDuringBuild aims the crash inside the bulk load, where
// the dirty window guarantees the recovery takes the full-rebuild tier.
func TestFullRebuildDuringBuild(t *testing.T) {
	oracle, rounds, _, osys := runRecoveryScript(nil)
	osys.Close()
	if rounds.afterBuild-rounds.afterNew < 4 {
		t.Fatalf("build spans only %d rounds; cannot aim a mid-build crash",
			rounds.afterBuild-rounds.afterNew)
	}
	mid := (rounds.afterNew + rounds.afterBuild) / 2
	got, _, pt, sys := runRecoveryScript(&pim.FaultPlan{Events: []pim.FaultEvent{
		{Round: mid, Kind: pim.FaultCrash, Module: 3},
	}})
	defer sys.Close()
	h := checkRecovered(t, oracle, got, pt)
	if h.FullRebuilds < 1 {
		t.Errorf("mid-build crash did not trigger a full rebuild: %+v", h)
	}
}

// TestTargetedRecoveryDuringRead aims the crash inside the first LCP
// batch: no mutation is in flight, so the repair must stay targeted.
func TestTargetedRecoveryDuringRead(t *testing.T) {
	oracle, rounds, _, osys := runRecoveryScript(nil)
	osys.Close()
	if rounds.afterLCP1 <= rounds.afterBuild {
		t.Fatalf("LCP spans no rounds; cannot aim a mid-read crash")
	}
	mid := (rounds.afterBuild + rounds.afterLCP1) / 2
	got, _, pt, sys := runRecoveryScript(&pim.FaultPlan{Events: []pim.FaultEvent{
		{Round: mid, Kind: pim.FaultCrash, Module: 5},
	}})
	defer sys.Close()
	h := checkRecovered(t, oracle, got, pt)
	if h.FullRebuilds != 0 {
		t.Errorf("read-window crash escalated to a full rebuild: %+v", h)
	}
	if h.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want exactly 1", h.Recoveries)
	}
}

// gatherStart notes the round the latest push-pull phase opened at.
type gatherStart struct {
	phaseRecorder
	sys   *pim.System
	first int64
}

func (r *gatherStart) BeginPhase(name string) {
	if name == "push-pull" {
		r.first = r.sys.Metrics().Rounds
	}
	r.phaseRecorder.BeginPhase(name)
}

// TestCrashMidSubtreeGather crashes a module at the last push-pull round
// of a subtree query over a block tree several levels deep (the root
// block can hold no pairs, so it is the later levels that return them).
// The repair reruns the gather, which must not keep the pairs of the
// levels gathered before the crash: the answer equals the oracle's, each
// pair once.
func TestCrashMidSubtreeGather(t *testing.T) {
	g := workload.New(7)
	keys := g.VarLen(900, 40, 120)
	values := g.Values(len(keys))
	oracle := trie.New()
	for i, k := range keys {
		oracle.Insert(k, values[i])
	}
	build := func(plan pim.FaultPlan) (*PIMTrie, *pim.System) {
		sys := pim.NewSystem(8, pim.WithSeed(1), pim.WithFaults(plan))
		pt := New(sys, Config{HashSeed: 1})
		pt.Build(keys, values)
		return pt, sys
	}
	// Model rounds repeat exactly, so a fault-free twin tells where the
	// gather's last level starts.
	twin, tsys := build(pim.FaultPlan{})
	rec := &gatherStart{sys: tsys}
	tsys.SetRecorder(rec)
	twin.SubtreeQuery(bitstr.Empty)
	tsys.SetRecorder(nil)
	tsys.Close()
	levels := int64(len(rec.rounds["push-pull"]))
	if levels < 3 {
		t.Fatalf("the gather spans %d levels; want a block tree at least 3 deep", levels)
	}

	pt, sys := build(pim.FaultPlan{Events: []pim.FaultEvent{{Round: rec.first + levels - 1, Kind: pim.FaultCrash, Module: 0}}})
	defer sys.Close()
	got := pt.SubtreeQuery(bitstr.Empty)
	if h := pt.Health(); h.Crashes != 1 || h.Recoveries != 1 || h.FullRebuilds != 0 {
		t.Fatalf("want one crash inside the gather and one targeted repair: %+v", h)
	}
	if want := oracle.SubtreeKeys(bitstr.Empty); !reflect.DeepEqual(got, want) {
		t.Errorf("Subtree(ε) after a repair mid-gather: %d pairs, the oracle holds %d", len(got), len(want))
	}
}

// TestRecoverObsConservation attaches the obs tracer across a crash and
// checks that (a) the trace still satisfies the conservation law after
// the panic-unwound phases were rebalanced, and (b) the repair cost is
// attributed to a "recover" span subtree that matches Health's
// RecoveryCost exactly.
func TestRecoverObsConservation(t *testing.T) {
	_, rounds, _, osys := runRecoveryScript(nil)
	osys.Close()
	mid := (rounds.afterBuild + rounds.afterLCP1) / 2

	var tr *obs.Tracer
	pim.SetSystemHook(func(s *pim.System) { tr = obs.Attach(s, "chaos") })
	got, _, pt, sys := runRecoveryScript(&pim.FaultPlan{Events: []pim.FaultEvent{
		{Round: mid, Kind: pim.FaultCrash, Module: 2},
	}})
	pim.SetSystemHook(nil)
	defer sys.Close()
	_ = got
	tr.Detach()

	data := tr.Data()
	if err := data.Check(); err != nil {
		t.Fatalf("conservation check after recovery: %v", err)
	}
	var recRounds, recIOTime int64
	spans := 0
	for _, sp := range data.Spans {
		if sp.Path == "recover" || strings.HasPrefix(sp.Path, "recover/") {
			spans++
			recRounds += sp.M.Rounds
			recIOTime += sp.M.IOTime
		}
	}
	if spans == 0 {
		t.Fatal("no recover span in the trace")
	}
	h := pt.Health()
	if recRounds != h.RecoveryCost.Rounds || recIOTime != h.RecoveryCost.IOTime {
		t.Errorf("recover spans carry %d rounds / %d io-time, Health says %d / %d",
			recRounds, recIOTime, h.RecoveryCost.Rounds, h.RecoveryCost.IOTime)
	}
	if recRounds == 0 {
		t.Error("recover spans carry zero rounds")
	}
}
