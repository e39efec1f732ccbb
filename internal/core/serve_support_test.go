package core

// Tests for the PR-5 serving substrate: the single-flight execution
// guard, the shared sortKVs path, and the metrics-equivalence of the
// split prepare/execute (Prepared) entry points.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// TestConcurrentBatchPanics asserts the in-use guard makes concurrent
// direct batch calls — Prepare among them — fail loudly instead of
// corrupting pooled scratch or racing a re-hash.
func TestConcurrentBatchPanics(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	keys := make([]bitstr.String, 64)
	for i := range keys {
		keys[i] = randomKey(r, 48)
	}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	pt, _ := newTestTrie(4, Config{})
	pt.Build(keys, vals)

	end := pt.beginBatch("test")
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"LCP", func() { pt.LCP(keys[:4]) }},
		{"Prepare", func() { pt.Prepare(keys[:4]) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s while another batch is in flight did not panic", tc.name)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "concurrent") {
					t.Fatalf("%s: panic message %v does not name the concurrency misuse", tc.name, r)
				}
			}()
			tc.call()
		}()
	}
	end()

	// After release the index serves normally again.
	if got := pt.LCP(keys[:1]); len(got) != 1 {
		t.Fatalf("post-release LCP returned %d results", len(got))
	}
}

// TestSortKVsTies is the regression test for replacing the hand-rolled
// quicksort: both the slices.SortFunc path and the parallel radix path
// must order ties (equal keys) deterministically and keep the multiset.
func TestSortKVsTies(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	build := func(n int) []trie.KV {
		kvs := make([]trie.KV, 0, n)
		base := make([]bitstr.String, n/4+1)
		for i := range base {
			base[i] = randomKey(r, 40)
		}
		for len(kvs) < n {
			// Plenty of duplicate keys to exercise ties.
			k := base[r.Intn(len(base))]
			kvs = append(kvs, trie.KV{Key: k, Value: uint64(len(kvs))})
		}
		return kvs
	}
	for _, n := range []int{10, sortKVsRadixCutoff + 500} {
		in := build(n)
		a := append([]trie.KV(nil), in...)
		b := append([]trie.KV(nil), in...)
		sortKVs(a)
		sortKVs(b)
		count := func(kvs []trie.KV) map[string]int {
			m := make(map[string]int)
			for _, kv := range kvs {
				m[kv.Key.String()] = m[kv.Key.String()] + 1
			}
			return m
		}
		if !reflect.DeepEqual(count(in), count(a)) {
			t.Fatalf("n=%d: sortKVs changed the key multiset", n)
		}
		for i := 1; i < len(a); i++ {
			if bitstr.Compare(a[i-1].Key, a[i].Key) > 0 {
				t.Fatalf("n=%d: out of order at %d: %q > %q", n, i, a[i-1].Key, a[i].Key)
			}
		}
		for i := range a {
			if !bitstr.Equal(a[i].Key, b[i].Key) || a[i].Value != b[i].Value {
				t.Fatalf("n=%d: sortKVs not deterministic on ties at %d: (%q,%d) vs (%q,%d)",
					n, i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
			}
		}
	}
}

// TestPreparedMetricsIdentical asserts the split prepare/execute path
// charges bit-identical model cost to the inline path — the property
// that makes host pipelining free in model terms.
func TestPreparedMetricsIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	keys := make([]bitstr.String, 300)
	for i := range keys {
		keys[i] = randomKey(r, 64)
	}
	queries := make([]bitstr.String, 128)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = keys[r.Intn(len(keys))]
		} else {
			queries[i] = randomKey(r, 64)
		}
	}
	loadVals := make([]uint64, len(keys))
	for i := range loadVals {
		loadVals[i] = uint64(i + 1)
	}
	newLoaded := func() (*PIMTrie, *metricsProbe) {
		pt, sys := newTestTrie(8, Config{})
		pt.Build(keys, loadVals)
		return pt, &metricsProbe{sys: sys, last: sys.Metrics()}
	}
	inline, pi := newLoaded()
	split, ps := newLoaded()

	// LCP
	wantLCP := inline.LCP(queries)
	gotLCP := split.LCPPrepared(split.Prepare(queries))
	if !reflect.DeepEqual(wantLCP, gotLCP) {
		t.Fatal("LCPPrepared results differ from LCP")
	}
	pi.diffEqual(t, ps, "LCP")

	// Get
	wv, wf := inline.Get(queries)
	gv, gf := split.GetPrepared(split.Prepare(queries))
	if !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(wf, gf) {
		t.Fatal("GetPrepared results differ from Get")
	}
	pi.diffEqual(t, ps, "Get")

	// Insert
	ins := make([]bitstr.String, 64)
	vals := make([]uint64, len(ins))
	for i := range ins {
		ins[i] = randomKey(r, 64)
		vals[i] = uint64(i + 1000)
	}
	inline.Insert(ins, vals)
	split.InsertPrepared(split.Prepare(ins), vals)
	pi.diffEqual(t, ps, "Insert")

	// Delete
	wd := inline.Delete(ins[:32])
	gd := split.DeletePrepared(split.Prepare(ins[:32]))
	if !reflect.DeepEqual(wd, gd) {
		t.Fatal("DeletePrepared results differ from Delete")
	}
	pi.diffEqual(t, ps, "Delete")
}

// TestStalePreparedRedone prepares a batch, forces a re-hash, then
// consumes the stale preparation: the consumer must notice the new hash
// function and prepare inline, so answers equal the plain op's and the
// model cost equals an index that re-hashed and ran the plain op.
func TestStalePreparedRedone(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	keys := make([]bitstr.String, 300)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = randomKey(r, 64)
		vals[i] = uint64(i + 1)
	}
	queries := append(keys[:64:64], randomKey(r, 64), randomKey(r, 64))
	ins := make([]bitstr.String, 64)
	insVals := make([]uint64, len(ins))
	for i := range ins {
		ins[i] = randomKey(r, 64)
		insVals[i] = uint64(i + 1000)
	}
	newLoaded := func() (*PIMTrie, *metricsProbe) {
		pt, sys := newTestTrie(8, Config{})
		pt.Build(keys, vals)
		return pt, &metricsProbe{sys: sys, last: sys.Metrics()}
	}
	plain, pp := newLoaded()
	stale, ps := newLoaded()

	stalePrep := func(batch []bitstr.String) *Prepared {
		pb := stale.Prepare(batch)
		stale.rehash()
		if pb.h == stale.h {
			t.Fatal("re-hash kept the hash function the preparation used")
		}
		return pb
	}

	plain.rehash()
	wantLCP := plain.LCP(queries)
	if got := stale.LCPPrepared(stalePrep(queries)); !reflect.DeepEqual(wantLCP, got) {
		t.Fatal("stale LCPPrepared answers differ from LCP")
	}
	pp.diffEqual(t, ps, "LCP")

	plain.rehash()
	plain.Insert(ins, insVals)
	stale.InsertPrepared(stalePrep(ins), insVals)
	pp.diffEqual(t, ps, "Insert")

	plain.rehash()
	wv, wf := plain.Get(ins)
	gv, gf := stale.GetPrepared(stalePrep(ins))
	if !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(wf, gf) {
		t.Fatal("stale GetPrepared answers differ from Get")
	}
	pp.diffEqual(t, ps, "Get")
	if err := stale.Validate(); err != nil {
		t.Fatal(err)
	}
}

type metricsProbe struct {
	sys  *pim.System
	last pim.Metrics
}

// diffEqual compares the cost incurred since the previous call on both
// probes, field by field including per-module vectors.
func (p *metricsProbe) diffEqual(t *testing.T, other *metricsProbe, op string) {
	t.Helper()
	cur, ocur := p.sys.Metrics(), other.sys.Metrics()
	d, od := cur.Sub(p.last), ocur.Sub(other.last)
	p.last, other.last = cur, ocur
	if !reflect.DeepEqual(d, od) {
		t.Fatalf("%s: inline metrics delta %+v != prepared delta %+v", op, d, od)
	}
}
