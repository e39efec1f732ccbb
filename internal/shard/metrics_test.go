package shard_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/shard"
	"github.com/pimlab/pimtrie/internal/telemetry"
	"github.com/pimlab/pimtrie/internal/workload"
)

// TestRouterExpositionLints drives a metric-instrumented router —
// including forced migrations — and checks the combined exposition
// (router series plus per-shard serve series carrying shard labels)
// is lint-clean and contains the expected families.
func TestRouterExpositionLints(t *testing.T) {
	reg := metrics.NewRegistry()
	r := shard.New(shard.Config{
		Shards:  3,
		Modules: 8,
		Index:   pimtrie.Options{Seed: 3},
		Metrics: reg,
	})
	defer r.Close()

	gen := workload.New(41)
	keys := dedupeKeys(gen.VarLen(300, 1, 32))
	if err := r.Insert(keys, gen.Values(len(keys))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get(keys[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LCP(keys[:20]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subtrees(keys[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Delete(keys[250:]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MigrateSlot(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rebalance(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, p := range telemetry.LintExposition(text) {
		t.Errorf("lint: %s", p)
	}
	for _, want := range []string{
		`pimtrie_router_requests_total{op="get"}`,
		`pimtrie_router_requests_total{op="insert"}`,
		`pimtrie_router_keys_total{op="subtree"}`,
		"pimtrie_router_migrations_total",
		"pimtrie_router_migrated_keys_total",
		"pimtrie_router_migration_seconds_bucket",
		"pimtrie_router_load_imbalance",
		"pimtrie_router_replicated_keys_total",
		"pimtrie_router_subtree_subrequests_total",
		`pimtrie_shard_slots_owned{shard="2"}`,
		`pimtrie_shard_load_share{shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The per-shard serve instruments are label-split, never colliding:
	// exactly one get-requests series per shard.
	for sid := 0; sid < 3; sid++ {
		series := fmt.Sprintf(`pimtrie_serve_requests_total{op="get",shard="%d"}`, sid)
		if n := strings.Count(text, series); n != 1 {
			t.Errorf("%s appears %d times, want 1", series, n)
		}
	}
}
