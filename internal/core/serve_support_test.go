package core

// Tests for the serving substrate: the single-flight execution guard
// and the shared sortKVs path.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/trie"
)

// TestConcurrentBatchPanics asserts the in-use guard makes a concurrent
// direct batch call fail loudly instead of corrupting pooled scratch or
// racing a re-hash.
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
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("LCP while another batch is in flight did not panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "concurrent") {
				t.Fatalf("LCP: panic message %v does not name the concurrency misuse", r)
			}
		}()
		pt.LCP(keys[:4])
	}()
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
