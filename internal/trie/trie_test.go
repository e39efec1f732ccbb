package trie

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// oracle is a map-based reference dictionary for property testing.
type oracle map[string]uint64

func (o oracle) lcpLen(key string) int {
	// Longest common prefix between key and any prefix present in the
	// trie. The set of prefixes present is exactly the set of prefixes of
	// stored keys, so this is max over stored keys of LCP(key, stored).
	best := 0
	for k := range o {
		n := 0
		for n < len(k) && n < len(key) && k[n] == key[n] {
			n++
		}
		if n > best {
			best = n
		}
	}
	return best
}

func randomKey(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte('0' + byte(r.Intn(2)))
	}
	return b.String()
}

func TestInsertGetBasic(t *testing.T) {
	tr := New()
	keys := []string{"", "0", "1", "00001", "000011", "101", "1010", "10100", "101001"}
	for i, k := range keys {
		if !tr.Insert(bitstr.MustParse(k), uint64(i)) {
			t.Fatalf("Insert(%q) reported existing", k)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok := tr.Get(bitstr.MustParse(k))
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tr.Get(bitstr.MustParse("01")); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if tr.KeyCount() != len(keys) {
		t.Fatalf("KeyCount = %d", tr.KeyCount())
	}
}

func TestInsertOverwrite(t *testing.T) {
	tr := New()
	k := bitstr.MustParse("0101")
	tr.Insert(k, 1)
	if tr.Insert(k, 2) {
		t.Fatal("second insert reported new")
	}
	if v, _ := tr.Get(k); v != 2 {
		t.Fatalf("value = %d", v)
	}
	if tr.KeyCount() != 1 {
		t.Fatalf("KeyCount = %d", tr.KeyCount())
	}
}

func TestPathCompressionNodeBound(t *testing.T) {
	// n random keys must yield at most 2n+1 compressed nodes.
	r := rand.New(rand.NewSource(1))
	tr := New()
	n := 500
	seen := map[string]bool{}
	for len(seen) < n {
		k := randomKey(r, 200)
		if !seen[k] {
			seen[k] = true
			tr.Insert(bitstr.MustParse(k), 0)
		}
	}
	if tr.NodeCount() > 2*n+1 {
		t.Fatalf("nodes = %d > 2n+1 = %d: path compression broken", tr.NodeCount(), 2*n+1)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := New()
	o := oracle{}
	var pool []string
	for step := 0; step < 4000; step++ {
		switch op := r.Intn(10); {
		case op < 4: // insert
			k := randomKey(r, 64)
			if len(pool) > 0 && r.Intn(3) == 0 {
				// Extend an existing key to force deep shared prefixes.
				k = pool[r.Intn(len(pool))] + randomKey(r, 16)
			}
			v := r.Uint64()
			tr.Insert(bitstr.MustParse(k), v)
			o[k] = v
			pool = append(pool, k)
		case op < 6: // delete
			var k string
			if len(pool) > 0 && r.Intn(2) == 0 {
				k = pool[r.Intn(len(pool))]
			} else {
				k = randomKey(r, 64)
			}
			got := tr.Delete(bitstr.MustParse(k))
			_, want := o[k]
			if got != want {
				t.Fatalf("step %d: Delete(%q) = %v, want %v", step, k, got, want)
			}
			delete(o, k)
		case op < 8: // get
			var k string
			if len(pool) > 0 && r.Intn(2) == 0 {
				k = pool[r.Intn(len(pool))]
			} else {
				k = randomKey(r, 64)
			}
			v, ok := tr.Get(bitstr.MustParse(k))
			wv, wok := o[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("step %d: Get(%q) = %d,%v want %d,%v", step, k, v, ok, wv, wok)
			}
		default: // lcp
			k := randomKey(r, 80)
			if len(pool) > 0 && r.Intn(2) == 0 {
				base := pool[r.Intn(len(pool))]
				cut := r.Intn(len(base) + 1)
				k = base[:cut] + randomKey(r, 10)
			}
			if got, want := tr.LCPLen(bitstr.MustParse(k)), o.lcpLen(k); got != want {
				t.Fatalf("step %d: LCPLen(%q) = %d, want %d", step, k, got, want)
			}
		}
		if step%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.KeyCount() != len(o) {
		t.Fatalf("KeyCount = %d, oracle has %d", tr.KeyCount(), len(o))
	}
}

func TestKeysSortedAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr := New()
	o := oracle{}
	for i := 0; i < 300; i++ {
		k := randomKey(r, 50)
		v := uint64(i)
		tr.Insert(bitstr.MustParse(k), v)
		o[k] = v
	}
	kvs := tr.SubtreeKeys(bitstr.Empty)
	if len(kvs) != len(o) {
		t.Fatalf("Keys len = %d, want %d", len(kvs), len(o))
	}
	var want []string
	for k := range o {
		want = append(want, k)
	}
	sort.Strings(want)
	for i, kv := range kvs {
		if kv.Key.String() != want[i] {
			t.Fatalf("Keys[%d] = %q, want %q", i, kv.Key, want[i])
		}
		if kv.Value != o[want[i]] {
			t.Fatalf("Keys[%d] value mismatch", i)
		}
	}
}

func TestSubtreeKeys(t *testing.T) {
	tr := New()
	all := []string{"000", "0010", "00110", "0100", "011", "1", "10", "111000"}
	for i, k := range all {
		tr.Insert(bitstr.MustParse(k), uint64(i))
	}
	for _, prefix := range []string{"", "0", "00", "001", "0011", "01", "1", "11", "1110", "111000", "0000", "2x"} {
		if prefix == "2x" {
			continue
		}
		var want []string
		for _, k := range all {
			if strings.HasPrefix(k, prefix) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		got := tr.SubtreeKeys(bitstr.MustParse(prefix))
		if len(got) != len(want) {
			t.Fatalf("SubtreeKeys(%q): %d results, want %d", prefix, len(got), len(want))
		}
		for i := range want {
			if got[i].Key.String() != want[i] {
				t.Fatalf("SubtreeKeys(%q)[%d] = %q, want %q", prefix, i, got[i].Key, want[i])
			}
		}
	}
}

func TestSubtreeKeysOnHiddenNode(t *testing.T) {
	tr := New()
	tr.Insert(bitstr.MustParse("111000"), 7)
	got := tr.SubtreeKeys(bitstr.MustParse("1110"))
	if len(got) != 1 || got[0].Key.String() != "111000" {
		t.Fatalf("hidden-node subtree query failed: %v", got)
	}
	if got := tr.SubtreeKeys(bitstr.MustParse("1111")); len(got) != 0 {
		t.Fatalf("mismatched prefix returned %v", got)
	}
}

func TestDeleteRecompresses(t *testing.T) {
	tr := New()
	tr.Insert(bitstr.MustParse("0000"), 1)
	tr.Insert(bitstr.MustParse("0011"), 2)
	if tr.NodeCount() != 4 { // root, branch at "00", two leaves
		t.Fatalf("nodes = %d", tr.NodeCount())
	}
	tr.Delete(bitstr.MustParse("0011"))
	if tr.NodeCount() != 2 { // root and the single remaining leaf
		t.Fatalf("nodes after delete = %d", tr.NodeCount())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.LCPLen(bitstr.MustParse("0011")); got != 2 {
		t.Fatalf("LCP after recompress = %d", got)
	}
}

func TestEmptyKeyAtRoot(t *testing.T) {
	tr := New()
	tr.Insert(bitstr.Empty, 9)
	if v, ok := tr.Get(bitstr.Empty); !ok || v != 9 {
		t.Fatal("empty key not stored at root")
	}
	if !tr.Delete(bitstr.Empty) {
		t.Fatal("delete empty key failed")
	}
	if _, ok := tr.Get(bitstr.Empty); ok {
		t.Fatal("empty key survived delete")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLCPLenPaperFigure1(t *testing.T) {
	// The data trie of Figure 1 stores keys spelled by its edges:
	// root -00001-> n1 (key "00001" has a value), n1 -101-> leaf,
	// root -1-> n2, n2 -0-> n3 -11-> …, n3 -0000->, n3 -111->, n2 -11->.
	tr := New()
	for _, k := range []string{"00001", "00001101", "10110000", "1011111", "111"} {
		tr.Insert(bitstr.MustParse(k), 1)
	}
	// Query strings from Figure 1 and their LCP lengths: "00001001" shares
	// "00001" (5); "101001" shares "10100" — a hidden-node match of length
	// 5 inside the edge "0000" below "1011"? In our reconstruction,
	// "101001" shares prefix "1011"? No: "101001" vs "10110000" shares
	// "101" then diverges (0 vs 1) => 3; vs "00001" => 0. The figure's
	// exact edge set differs; what matters here is agreement with the
	// brute-force oracle.
	o := oracle{"00001": 1, "00001101": 1, "10110000": 1, "1011111": 1, "111": 1}
	for _, q := range []string{"00001001", "101001", "101011", "00001101", "1", "0", ""} {
		if got, want := tr.LCPLen(bitstr.MustParse(q)), o.lcpLen(q); got != want {
			t.Fatalf("LCPLen(%q) = %d, want %d", q, got, want)
		}
	}
}

func TestSizeWordsGrowsLinearly(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(bitstr.MustParse(randomKey(r, 128)), uint64(i))
	}
	n := tr.KeyCount()
	sz := tr.SizeWords()
	// Q_T = O(L/w + n): with keys ≤128 bits, the size should be within a
	// small constant of the node count.
	if sz > 20*n {
		t.Fatalf("SizeWords = %d for %d keys — not linear", sz, n)
	}
	if sz < n {
		t.Fatalf("SizeWords = %d suspiciously small for %d keys", sz, n)
	}
}

func TestNodeString(t *testing.T) {
	tr := New()
	keys := []string{"00001", "00001101", "1011", "10"}
	for _, k := range keys {
		tr.Insert(bitstr.MustParse(k), 1)
	}
	found := map[string]bool{}
	tr.WalkPreorder(func(n *Node) bool {
		if n.HasValue {
			found[NodeString(n).String()] = true
		}
		return true
	})
	for _, k := range keys {
		if !found[k] {
			t.Fatalf("NodeString never produced %q (found %v)", k, found)
		}
	}
}

func BenchmarkInsert64bit(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	keys := make([]bitstr.String, 1<<14)
	for i := range keys {
		keys[i] = bitstr.FromUint64(r.Uint64(), 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i&(1<<14-1)], uint64(i))
	}
}

func BenchmarkLCP64bit(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	tr := New()
	for i := 0; i < 1<<14; i++ {
		tr.Insert(bitstr.FromUint64(r.Uint64(), 64), uint64(i))
	}
	qs := make([]bitstr.String, 1024)
	for i := range qs {
		qs[i] = bitstr.FromUint64(r.Uint64(), 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LCPLen(qs[i&1023])
	}
}
