package shard

import (
	"strconv"

	"github.com/pimlab/pimtrie/internal/metrics"
)

// Router op indexes for the per-op instrument arrays.
const (
	opGet = iota
	opLCP
	opSubtree
	opInsert
	opDelete
	numOps
)

var opNames = [numOps]string{"get", "lcp", "subtree", "insert", "delete"}

// routerMetrics holds the router-level instruments. Per-shard serving
// instruments are the serve package's own series carrying a shard="i"
// label (serve.Options.MetricLabels); only cross-shard concerns live
// here.
type routerMetrics struct {
	requests   [numOps]*metrics.Counter
	keys       [numOps]*metrics.Counter
	fanout     *metrics.Counter
	replicated *metrics.Counter

	snapReads     *metrics.Counter
	snapFallbacks *metrics.Counter

	migrations   *metrics.Counter
	migratedKeys *metrics.Counter
	migrationDur *metrics.Histogram
	imbalance    *metrics.Gauge
	loadShare    []*metrics.Gauge
	slotsOwned   []*metrics.Gauge
}

func newRouterMetrics(reg *metrics.Registry, shards int) *routerMetrics {
	m := &routerMetrics{
		fanout: reg.Counter("pimtrie_router_subtree_subrequests_total",
			"Per-shard subtree scans issued by scatter (fan-out)."),
		replicated: reg.Counter("pimtrie_router_replicated_keys_total",
			"Extra short-key copies written for covering-shard replication."),
		snapReads: reg.Counter("pimtrie_router_snapshot_reads_total",
			"Keys served shard-locally from published snapshots, bypassing the router lock and the shard queues."),
		snapFallbacks: reg.Counter("pimtrie_router_snapshot_fallbacks_total",
			"ReadSnapshot keys rerouted through the strong path (filter distrust, unpublished snapshot, or mid-read migration)."),
		migrations: reg.Counter("pimtrie_router_migrations_total",
			"Completed hot-range slot migrations."),
		migratedKeys: reg.Counter("pimtrie_router_migrated_keys_total",
			"Key/value pairs replayed by slot migrations."),
		migrationDur: reg.Histogram("pimtrie_router_migration_seconds",
			"Wall time per slot migration, export to cleanup."),
		imbalance: reg.Gauge("pimtrie_router_load_imbalance",
			"Max/mean per-shard routed-key load of the last Rebalance window (1 = even)."),
	}
	for op := 0; op < numOps; op++ {
		m.requests[op] = reg.Counter("pimtrie_router_requests_total",
			"Router batch requests by operation.", metrics.L("op", opNames[op]))
		m.keys[op] = reg.Counter("pimtrie_router_keys_total",
			"Keys submitted to the router by operation.", metrics.L("op", opNames[op]))
	}
	for i := 0; i < shards; i++ {
		lbl := metrics.L("shard", strconv.Itoa(i))
		m.loadShare = append(m.loadShare, reg.Gauge("pimtrie_shard_load_share",
			"Fraction of routed key copies landing on this shard in the last Rebalance window.", lbl))
		m.slotsOwned = append(m.slotsOwned, reg.Gauge("pimtrie_shard_slots_owned",
			"Route slots currently owned by this shard.", lbl))
	}
	return m
}

func (m *routerMetrics) note(op, keys int) {
	m.requests[op].Inc()
	m.keys[op].Add(uint64(keys))
}

// updateSlots refreshes the per-shard slot-ownership gauges from the
// routing table (caller holds r.mu).
func (m *routerMetrics) updateSlots(table []int, shards int) {
	owned := make([]int, shards)
	for _, sid := range table {
		owned[sid]++
	}
	for i, n := range owned {
		m.slotsOwned[i].Set(float64(n))
	}
}
