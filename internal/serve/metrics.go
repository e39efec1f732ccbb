package serve

// Live serving-layer instrumentation (Options.Metrics). Every hook is
// guarded by `s.met != nil`, so a Server without a registry pays one
// nil check per site and nothing else — the same philosophy as
// sys.Phase. With a registry attached, hot-path updates are atomic
// counter/histogram operations on pre-registered instruments; no
// allocation, no locking beyond what the scheduler already holds.
//
// The index-health block doubles as the fault/recovery event feed:
// after every committed epoch the executor samples Index.Health() and
// turns the cumulative sample into monotonic counters (injected faults
// by kind, recoveries, rebuild scope, repair IO) plus the degraded /
// dead-module gauges that back /healthz.

import (
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
)

// Why an epoch ended before the queue did; indexes serveMetrics.cuts.
const (
	cutConflict       = iota // an insert of a key an admitted delete touches
	cutReadAfterWrite        // a Get of a written key, or an LCP or Subtree after a write
	cutMaxBatch
)

// serveMetrics is the Server's instrument set.
type serveMetrics struct {
	requests [numOps]*metrics.Counter
	keysReq  [numOps]*metrics.Counter
	keysExec [numOps]*metrics.Counter
	latency  [numOps]*metrics.Histogram

	queueDepth  *metrics.Gauge
	linger      *metrics.Histogram
	epochKeys   *metrics.Histogram
	readEpochs  *metrics.Counter
	writeEpochs *metrics.Counter
	cuts        [3]*metrics.Counter // cutConflict, cutReadAfterWrite, cutMaxBatch
	deduped     *metrics.Counter
	dedupRatio  *metrics.Gauge

	snapReads     *metrics.Counter
	snapFallbacks *metrics.Counter
	snapAge       *metrics.Gauge
	snapEpoch     *metrics.Gauge

	executeSec *metrics.Histogram

	degraded     *metrics.Gauge
	deadModules  *metrics.Gauge
	recoveries   *metrics.Counter
	fullRebuilds *metrics.Counter
	modulesLost  *metrics.Counter
	faults       [3]*metrics.Counter // crash, straggle, truncate
	recoveryIO   *metrics.Counter
}

func newServeMetrics(reg *metrics.Registry, base []metrics.Label) *serveMetrics {
	// lbl appends the per-instrument labels to the server-wide base set
	// (e.g. shard="3" under a sharding router) in a fresh slice.
	lbl := func(ls ...metrics.Label) []metrics.Label {
		out := make([]metrics.Label, 0, len(base)+len(ls))
		out = append(out, base...)
		return append(out, ls...)
	}
	m := &serveMetrics{
		queueDepth:    reg.Gauge("pimtrie_serve_queue_depth", "requests admitted but not yet formed into an epoch", lbl()...),
		linger:        reg.Histogram("pimtrie_serve_linger_seconds", "time a request waited in the queue before its epoch formed", lbl()...),
		epochKeys:     reg.Histogram("pimtrie_serve_epoch_keys", "keys per epoch over all its sections, reads deduplicated", lbl()...),
		readEpochs:    reg.Counter("pimtrie_serve_read_epochs_total", "epochs holding a read section", lbl()...),
		writeEpochs:   reg.Counter("pimtrie_serve_write_epochs_total", "epochs holding a write section", lbl()...),
		deduped:       reg.Counter("pimtrie_serve_read_keys_deduped_total", "read keys absorbed by singleflight dedupe within an epoch", lbl()...),
		dedupRatio:    reg.Gauge("pimtrie_serve_read_dedupe_ratio", "cumulative fraction of epoch-admitted read keys absorbed by dedupe", lbl()...),
		snapReads:     reg.Counter("pimtrie_serve_snapshot_reads_total", "keys served wait-free from the published COW snapshot", lbl()...),
		snapFallbacks: reg.Counter("pimtrie_serve_snapshot_fallbacks_total", "ReadSnapshot keys sent back to the epoch path by the recent-writes filter", lbl()...),
		snapAge:       reg.Gauge("pimtrie_serve_snapshot_age_epochs", "committed write epochs the published snapshot trailed by at the last snapshot read", lbl()...),
		snapEpoch:     reg.Gauge("pimtrie_serve_snapshot_epoch", "write-epoch stamp of the currently published snapshot", lbl()...),
		executeSec:    reg.Histogram("pimtrie_serve_execute_seconds", "index time per epoch, host preparation and settling its futures included", lbl()...),
		degraded:      reg.Gauge("pimtrie_index_degraded", "1 while a module-loss recovery is in progress", lbl()...),
		deadModules:   reg.Gauge("pimtrie_index_dead_modules", "currently crash-stopped modules", lbl()...),
		recoveries:    reg.Counter("pimtrie_index_recoveries_total", "completed module-loss recoveries", lbl()...),
		fullRebuilds: reg.Counter("pimtrie_index_full_rebuilds_total",
			"recoveries that rebuilt the whole index from the host shadow", lbl()...),
		modulesLost: reg.Counter("pimtrie_index_modules_lost_total", "modules lost across all recoveries", lbl()...),
		recoveryIO:  reg.Counter("pimtrie_index_recovery_io_words_total", "model IO words spent on repairs", lbl()...),
	}
	for op := Op(0); op < numOps; op++ {
		l := metrics.L("op", op.String())
		m.requests[op] = reg.Counter("pimtrie_serve_requests_total", "admitted requests (calls, not keys); rate() gives per-op arrival rate", lbl(l)...)
		m.keysReq[op] = reg.Counter("pimtrie_serve_keys_requested_total", "keys across admitted requests", lbl(l)...)
		m.keysExec[op] = reg.Counter("pimtrie_serve_keys_executed_total", "unique keys sent to the index", lbl(l)...)
		m.latency[op] = reg.Histogram("pimtrie_serve_request_seconds", "end-to-end request latency, admission to resolution", lbl(l)...)
	}
	for cut, reason := range [...]string{cutConflict: "conflict", cutReadAfterWrite: "read_after_write", cutMaxBatch: "max_batch"} {
		m.cuts[cut] = reg.Counter("pimtrie_serve_epoch_cuts_total",
			"epochs that left calls queued: an insert hit a key the epoch deletes, a read followed a write it depends on, or MaxBatch was reached", lbl(metrics.L("reason", reason))...)
	}
	for kind, name := range [...]string{"crash", "straggle", "truncate"} {
		m.faults[kind] = reg.Counter("pimtrie_index_faults_total", "injected faults observed, by kind", lbl(metrics.L("kind", name))...)
	}
	return m
}

// observeLatency records a request's end-to-end latency at resolution.
func (s *Server) observeLatency(c *call) {
	if s.met != nil {
		s.met.latency[c.op].Observe(time.Since(c.enq).Seconds())
	}
}

// noteFormed records queue exit and linger for every call entering an
// epoch. Caller holds s.mu.
func (m *serveMetrics) noteFormed(calls []*call, now time.Time) {
	for _, c := range calls {
		m.linger.Observe(now.Sub(c.enq).Seconds())
	}
	m.queueDepth.Add(-float64(len(calls)))
}

// updateDedupRatio refreshes the cumulative dedupe-ratio gauge from
// the counters: absorbed / (absorbed + executed read keys).
func (m *serveMetrics) updateDedupRatio() {
	d := float64(m.deduped.Value())
	e := float64(m.keysExec[OpGet].Value() + m.keysExec[OpLCP].Value() + m.keysExec[OpSubtree].Value())
	if d+e > 0 {
		m.dedupRatio.Set(d / (d + e))
	}
}

// updateHealth folds a fresh cumulative Health sample into the gauges
// and monotonic counters, given the previous sample.
func (m *serveMetrics) updateHealth(prev, h pimtrie.Health) {
	if h.Degraded {
		m.degraded.Set(1)
	} else {
		m.degraded.Set(0)
	}
	m.deadModules.Set(float64(len(h.DeadModules)))
	delta := func(c *metrics.Counter, now, before int64) {
		if d := now - before; d > 0 {
			c.Add(uint64(d))
		}
	}
	delta(m.recoveries, int64(h.Recoveries), int64(prev.Recoveries))
	delta(m.fullRebuilds, int64(h.FullRebuilds), int64(prev.FullRebuilds))
	delta(m.modulesLost, int64(h.ModulesLost), int64(prev.ModulesLost))
	delta(m.faults[0], h.Crashes, prev.Crashes)
	delta(m.faults[1], h.Straggles, prev.Straggles)
	delta(m.faults[2], h.Truncations, prev.Truncations)
	delta(m.recoveryIO, h.RecoveryCost.IOWords, prev.RecoveryCost.IOWords)
}

// sampleHealth refreshes the post-epoch samples behind KeyCount and
// ModelMetrics and, when metrics are attached, the health instruments. Called from the goroutine that owns the index: at
// construction and after every executed epoch.
func (s *Server) sampleHealth() {
	h := s.ix.Health()
	n := s.ix.Len()
	m := s.ix.Metrics()
	s.healthMu.Lock()
	prev := s.health
	s.health = h
	s.keyCount = n
	s.model = m
	s.healthMu.Unlock()
	if s.met != nil {
		s.met.updateHealth(prev, h)
	}
}

// KeyCount returns the index's stored-key count as sampled after the
// most recently committed epoch; safe from any goroutine while the
// server is running (unlike Index.Len).
func (s *Server) KeyCount() int {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.keyCount
}

// ModelMetrics returns the index's cumulative PIM Model cost counters
// as sampled after the most recently committed epoch; safe from any
// goroutine while the server is running (unlike Index.Metrics). Diff
// two snapshots with Metrics.Sub to cost a serving window.
func (s *Server) ModelMetrics() pimtrie.Metrics {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.model
}
