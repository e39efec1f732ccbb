package obs

import (
	"math"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
)

// driveRounds runs a few phased rounds with a deliberately skewed
// module load and returns the system's resulting metrics delta.
func driveRounds(sys *pim.System) pim.Metrics {
	before := sys.Metrics()
	run := func(work int) func(m *pim.Module) pim.Resp {
		return func(m *pim.Module) pim.Resp {
			m.Work(work)
			return pim.Resp{RecvWords: 1}
		}
	}
	end := sys.Phase("alpha")
	sys.Round([]pim.Task{
		{Module: 0, SendWords: 10, Run: run(5)},
		{Module: 1, SendWords: 2, Run: run(1)},
	})
	inner := sys.Phase("beta")
	sys.Round([]pim.Task{{Module: 0, SendWords: 30, Run: run(9)}})
	inner()
	end()
	sys.CPUWork(17)
	sys.Round([]pim.Task{{Module: 2, SendWords: 4, Run: run(2)}})
	return sys.Metrics().Sub(before)
}

func TestMonitorMatchesSystemMetrics(t *testing.T) {
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	sys := pim.NewSystem(4, pim.WithSeed(1))
	reg := metrics.NewRegistry()
	mon := NewMonitor(reg, sys.P())
	sys.SetRecorder(mon)
	d := driveRounds(sys)
	sys.SetRecorder(nil)

	v := reg.Varz()
	checks := []struct {
		series string
		want   uint64
	}{
		{"pimtrie_pim_rounds_total", uint64(d.Rounds)},
		{"pimtrie_pim_io_time_total", uint64(d.IOTime)},
		{"pimtrie_pim_io_words_total", uint64(d.IOWords)},
		{"pimtrie_pim_time_total", uint64(d.PIMTime)},
		{"pimtrie_pim_work_total", uint64(d.PIMWork)},
		{"pimtrie_pim_cpu_work_total", uint64(d.CPUWork)},
		{`pimtrie_phase_rounds_total{phase="alpha"}`, 1},
		{`pimtrie_phase_rounds_total{phase="beta"}`, 1},
		{`pimtrie_phase_io_words_total{phase="beta"}`, 31},
	}
	for _, c := range checks {
		if got := v[c.series]; got != c.want {
			t.Errorf("%s = %v, want %d", c.series, got, c.want)
		}
	}

	// The live imbalance gauges must equal the shared Imbalance
	// coefficients over the system's own per-module vectors — and
	// max/mean must agree with the paper's IOBalance factor.
	wantMM, wantCV := metrics.Imbalance(d.PerModuleIO)
	if got := v["pimtrie_pim_io_imbalance_max_mean"].(float64); math.Abs(got-wantMM) > 1e-12 {
		t.Errorf("io max/mean gauge = %v, want %v", got, wantMM)
	}
	if got := v["pimtrie_pim_io_imbalance_cv"].(float64); math.Abs(got-wantCV) > 1e-12 {
		t.Errorf("io cv gauge = %v, want %v", got, wantCV)
	}
	if math.Abs(wantMM-d.IOBalance()) > 1e-12 {
		t.Errorf("Imbalance max/mean %v != Metrics.IOBalance %v", wantMM, d.IOBalance())
	}
	if got := mon.perModIO; len(got) != 4 || got[0] != d.PerModuleIO[0] {
		t.Errorf("monitor per-module IO %v, system %v", got, d.PerModuleIO)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pimtrie_pim_io_imbalance_max_mean") {
		t.Error("exposition missing imbalance gauge")
	}
}

// TestMonitorUnregisteredCost: a system with no recorder must not pay
// for instrumentation — this is the same contract sys.Phase documents,
// checked here from the monitor's side (attach, detach, keep running).
func TestMonitorDetach(t *testing.T) {
	defer parallel.SetMaxProcs(parallel.SetMaxProcs(1))
	sys := pim.NewSystem(4, pim.WithSeed(1))
	reg := metrics.NewRegistry()
	mon := NewMonitor(reg, sys.P())
	sys.SetRecorder(mon)
	driveRounds(sys)
	after := reg.Varz()["pimtrie_pim_rounds_total"].(uint64)
	sys.SetRecorder(nil)
	driveRounds(sys)
	if got := reg.Varz()["pimtrie_pim_rounds_total"].(uint64); got != after {
		t.Errorf("detached monitor still recorded: %d -> %d", after, got)
	}
}
