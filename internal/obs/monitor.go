package obs

// Monitor is the Tracer's always-on sibling: a pim.Recorder that feeds
// a live metrics.Registry instead of accumulating a post-hoc trace.
// Where the Tracer remembers every round (memory grows with the run)
// for offline analysis, the Monitor folds each round into a fixed set
// of counters, histograms and skew gauges the moment it happens, so a
// long-running serving process can expose continuously fresh
// operational metrics over HTTP (internal/telemetry) at O(1) memory.
//
// Per-phase attribution uses the innermost open phase's *name* (not
// the full path) as the label, which keeps the label cardinality at
// the number of distinct phase markers in the codebase rather than the
// number of distinct nestings. The per-module imbalance gauges report
// the same two coefficients (max/mean and CV, metrics.Imbalance) the
// offline pimtrie-trace skew summary prints, so live dashboards and
// trace analyses speak one vocabulary.

import (
	"sync"

	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/pim"
)

// phaseInstruments is one phase label's counter set.
type phaseInstruments struct {
	rounds, ioWords, pimWork, cpuWork *metrics.Counter
}

// Monitor implements pim.Recorder over a metrics.Registry. Create with
// NewMonitor and attach with sys.SetRecorder (or pimtrie's
// Index.SetRecorder); like the Tracer, at most one recorder observes a
// system at a time.
type Monitor struct {
	mu  sync.Mutex
	reg *metrics.Registry

	rounds  *metrics.Counter
	ioTime  *metrics.Counter
	ioWords *metrics.Counter
	pimTime *metrics.Counter
	pimWork *metrics.Counter
	cpuWork *metrics.Counter
	roundIO *metrics.Histogram // per-round busiest-module IO (words)

	ioMaxMean, ioCV   *metrics.Gauge
	wrkMaxMean, wrkCV *metrics.Gauge
	perModIO          []int64
	perModWrk         []int64

	stack  []string
	phases map[string]*phaseInstruments
}

// NewMonitor creates a Monitor over p modules, registering its
// instruments (pimtrie_pim_* and pimtrie_phase_*) in reg.
func NewMonitor(reg *metrics.Registry, p int) *Monitor {
	m := &Monitor{
		reg:       reg,
		rounds:    reg.Counter("pimtrie_pim_rounds_total", "BSP supersteps executed"),
		ioTime:    reg.Counter("pimtrie_pim_io_time_total", "model IO time: sum over rounds of the busiest module's words"),
		ioWords:   reg.Counter("pimtrie_pim_io_words_total", "total words moved CPU<->PIM"),
		pimTime:   reg.Counter("pimtrie_pim_time_total", "model PIM time: sum over rounds of the busiest module's work"),
		pimWork:   reg.Counter("pimtrie_pim_work_total", "total accounted PIM work"),
		cpuWork:   reg.Counter("pimtrie_pim_cpu_work_total", "total accounted host CPU work"),
		roundIO:   reg.Histogram("pimtrie_pim_round_io_words", "busiest module's IO words per round"),
		ioMaxMean: reg.Gauge("pimtrie_pim_io_imbalance_max_mean", "per-module IO skew: max/mean (1 = balanced, P = serialized)"),
		ioCV:      reg.Gauge("pimtrie_pim_io_imbalance_cv", "per-module IO skew: coefficient of variation"),
		wrkMaxMean: reg.Gauge("pimtrie_pim_work_imbalance_max_mean",
			"per-module work skew: max/mean (1 = balanced, P = serialized)"),
		wrkCV:     reg.Gauge("pimtrie_pim_work_imbalance_cv", "per-module work skew: coefficient of variation"),
		perModIO:  make([]int64, p),
		perModWrk: make([]int64, p),
		phases:    map[string]*phaseInstruments{},
	}
	m.ioMaxMean.Set(1)
	m.wrkMaxMean.Set(1)
	return m
}

// phase returns (registering on first use) the counter set for a phase
// name. Caller holds m.mu.
func (m *Monitor) phase(name string) *phaseInstruments {
	pi, ok := m.phases[name]
	if !ok {
		l := metrics.L("phase", name)
		pi = &phaseInstruments{
			rounds:  m.reg.Counter("pimtrie_phase_rounds_total", "rounds attributed to the innermost open phase", l),
			ioWords: m.reg.Counter("pimtrie_phase_io_words_total", "IO words attributed to the innermost open phase", l),
			pimWork: m.reg.Counter("pimtrie_phase_pim_work_total", "PIM work attributed to the innermost open phase", l),
			cpuWork: m.reg.Counter("pimtrie_phase_cpu_work_total", "CPU work attributed to the innermost open phase", l),
		}
		m.phases[name] = pi
	}
	return pi
}

// BeginPhase implements pim.Recorder.
func (m *Monitor) BeginPhase(name string) {
	m.mu.Lock()
	m.stack = append(m.stack, name)
	m.mu.Unlock()
}

// EndPhase implements pim.Recorder.
func (m *Monitor) EndPhase() {
	m.mu.Lock()
	if len(m.stack) > 0 {
		m.stack = m.stack[:len(m.stack)-1]
	}
	m.mu.Unlock()
}

// RecordRound implements pim.Recorder: fold the round into the global
// counters, the innermost phase's counters, and the cumulative
// per-module vectors behind the imbalance gauges.
func (m *Monitor) RecordRound(tr pim.RoundTrace) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rounds.Inc()
	m.ioTime.Add(uint64(tr.MaxIO))
	m.ioWords.Add(uint64(tr.SendWords + tr.RecvWords))
	m.pimTime.Add(uint64(tr.MaxWork))
	m.pimWork.Add(uint64(tr.Work))
	m.roundIO.Observe(float64(tr.MaxIO))
	if len(m.stack) > 0 {
		pi := m.phase(m.stack[len(m.stack)-1])
		pi.rounds.Inc()
		pi.ioWords.Add(uint64(tr.SendWords + tr.RecvWords))
		pi.pimWork.Add(uint64(tr.Work))
	}
	for j, id := range tr.ModID {
		if id < len(m.perModIO) {
			m.perModIO[id] += tr.ModIO[j]
			m.perModWrk[id] += tr.ModWork[j]
		}
	}
	mm, cv := metrics.Imbalance(m.perModIO)
	m.ioMaxMean.Set(mm)
	m.ioCV.Set(cv)
	mm, cv = metrics.Imbalance(m.perModWrk)
	m.wrkMaxMean.Set(mm)
	m.wrkCV.Set(cv)
}

// RecordCPUWork implements pim.Recorder.
func (m *Monitor) RecordCPUWork(n int) {
	m.mu.Lock()
	m.cpuWork.Add(uint64(n))
	if len(m.stack) > 0 {
		m.phase(m.stack[len(m.stack)-1]).cpuWork.Add(uint64(n))
	}
	m.mu.Unlock()
}
