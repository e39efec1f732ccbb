package core

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// newTestTrie builds a PIM-trie on a fresh system with deterministic
// seeds and test-friendly parameters.
func newTestTrie(p int, cfg Config) (*PIMTrie, *pim.System) {
	sys := pim.NewSystem(p, pim.WithSeed(99))
	return New(sys, cfg), sys
}

func randomKey(r *rand.Rand, maxLen int) bitstr.String {
	n := r.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte('0' + byte(r.Intn(2)))
	}
	return bitstr.MustParse(b.String())
}

// skewedKeys generates keys sharing deep common prefixes (the adversarial
// shape for radix indexes).
func skewedKeys(r *rand.Rand, n, prefixLen, tailLen int) []bitstr.String {
	prefix := randomKey(r, 0)
	for prefix.Len() < prefixLen {
		prefix = prefix.Concat(bitstr.FromUint64(uint64(r.Intn(2)), 1))
	}
	out := make([]bitstr.String, n)
	for i := range out {
		out[i] = prefix.Concat(randomKey(r, tailLen))
	}
	return out
}

// buildBoth creates a PIM-trie and an oracle trie holding the same data.
func buildBoth(t *testing.T, p int, cfg Config, keys []bitstr.String) (*PIMTrie, *trie.Trie) {
	t.Helper()
	pt, _ := newTestTrie(p, cfg)
	oracle := trie.New()
	values := make([]uint64, len(keys))
	for i, k := range keys {
		values[i] = uint64(i + 1)
		oracle.Insert(k, values[i])
	}
	pt.Build(keys, values)
	if pt.KeyCount() != oracle.KeyCount() {
		t.Fatalf("KeyCount = %d, oracle %d", pt.KeyCount(), oracle.KeyCount())
	}
	return pt, oracle
}

func checkLCP(t *testing.T, pt *PIMTrie, oracle *trie.Trie, queries []bitstr.String) {
	t.Helper()
	got := pt.LCP(queries)
	for i, q := range queries {
		want := oracle.LCPLen(q)
		if got[i] != want {
			t.Fatalf("LCP(%q) = %d, want %d", q, got[i], want)
		}
	}
}

func checkGet(t *testing.T, pt *PIMTrie, oracle *trie.Trie, queries []bitstr.String) {
	t.Helper()
	vals, found := pt.Get(queries)
	for i, q := range queries {
		wv, wok := oracle.Get(q)
		if found[i] != wok || (wok && vals[i] != wv) {
			t.Fatalf("Get(%q) = %d,%v want %d,%v", q, vals[i], found[i], wv, wok)
		}
	}
}

func TestBuildAndLCPSmall(t *testing.T) {
	keys := []bitstr.String{
		bitstr.MustParse("00001"),
		bitstr.MustParse("00001101"),
		bitstr.MustParse("10110000"),
		bitstr.MustParse("1011111"),
		bitstr.MustParse("111"),
	}
	pt, oracle := buildBoth(t, 4, Config{}, keys)
	queries := []bitstr.String{
		bitstr.MustParse("00001001"),
		bitstr.MustParse("101001"),
		bitstr.MustParse("101011"),
		bitstr.MustParse("00001101"),
		bitstr.MustParse("1"),
		bitstr.MustParse("0"),
		bitstr.Empty,
		bitstr.MustParse("11111111"),
	}
	checkLCP(t, pt, oracle, queries)
	checkGet(t, pt, oracle, keys)
	checkGet(t, pt, oracle, queries)
}

func TestBuildAndLCPRandom(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		r := rand.New(rand.NewSource(int64(p)))
		keys := make([]bitstr.String, 400)
		for i := range keys {
			keys[i] = randomKey(r, 120)
			if i > 0 && r.Intn(3) == 0 {
				keys[i] = keys[r.Intn(i)].Concat(randomKey(r, 40))
			}
		}
		pt, oracle := buildBoth(t, p, Config{}, keys)
		var queries []bitstr.String
		for i := 0; i < 300; i++ {
			switch i % 3 {
			case 0:
				queries = append(queries, randomKey(r, 150))
			case 1:
				k := keys[r.Intn(len(keys))]
				queries = append(queries, k.Prefix(r.Intn(k.Len()+1)))
			default:
				queries = append(queries, keys[r.Intn(len(keys))].Concat(randomKey(r, 20)))
			}
		}
		checkLCP(t, pt, oracle, queries)
		checkGet(t, pt, oracle, queries)
	}
}

func TestBuildDeepSkewedData(t *testing.T) {
	// A long spine with branches: blocks chain deeply; matching must hop
	// through many block roots.
	r := rand.New(rand.NewSource(7))
	keys := skewedKeys(r, 200, 600, 80)
	pt, oracle := buildBoth(t, 8, Config{}, keys)
	var queries []bitstr.String
	for i := 0; i < 150; i++ {
		k := keys[r.Intn(len(keys))]
		switch i % 3 {
		case 0:
			queries = append(queries, k)
		case 1:
			queries = append(queries, k.Prefix(r.Intn(k.Len()+1)))
		default:
			queries = append(queries, k.Prefix(r.Intn(k.Len())).Concat(randomKey(r, 30)))
		}
	}
	checkLCP(t, pt, oracle, queries)
	checkGet(t, pt, oracle, queries)
}

func TestInsertMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pt, _ := newTestTrie(8, Config{})
	oracle := trie.New()
	var pool []bitstr.String
	for batchNo := 0; batchNo < 8; batchNo++ {
		n := 50 + r.Intn(100)
		keys := make([]bitstr.String, n)
		values := make([]uint64, n)
		for i := range keys {
			keys[i] = randomKey(r, 100)
			if len(pool) > 0 && r.Intn(3) == 0 {
				keys[i] = pool[r.Intn(len(pool))].Concat(randomKey(r, 30))
			}
			values[i] = r.Uint64() >> 1
			pool = append(pool, keys[i])
		}
		pt.Insert(keys, values)
		for i := range keys {
			oracle.Insert(keys[i], values[i])
		}
		if pt.KeyCount() != oracle.KeyCount() {
			t.Fatalf("batch %d: KeyCount %d vs oracle %d", batchNo, pt.KeyCount(), oracle.KeyCount())
		}
		// Probe with stored keys, prefixes, and randoms.
		var queries []bitstr.String
		for i := 0; i < 60; i++ {
			switch i % 3 {
			case 0:
				queries = append(queries, pool[r.Intn(len(pool))])
			case 1:
				k := pool[r.Intn(len(pool))]
				queries = append(queries, k.Prefix(r.Intn(k.Len()+1)))
			default:
				queries = append(queries, randomKey(r, 120))
			}
		}
		checkLCP(t, pt, oracle, queries)
		checkGet(t, pt, oracle, queries)
	}
}

func TestInsertFromEmpty(t *testing.T) {
	// Insert without Build: everything funnels through the root block and
	// must trigger block splits.
	r := rand.New(rand.NewSource(13))
	pt, _ := newTestTrie(4, Config{})
	oracle := trie.New()
	keys := make([]bitstr.String, 300)
	values := make([]uint64, 300)
	for i := range keys {
		keys[i] = randomKey(r, 90)
		values[i] = uint64(i)
		oracle.Insert(keys[i], values[i])
	}
	pt.Insert(keys, values)
	if pt.KeyCount() != oracle.KeyCount() {
		t.Fatalf("KeyCount %d vs %d", pt.KeyCount(), oracle.KeyCount())
	}
	st := pt.CollectStats()
	if st.Blocks < 2 {
		t.Fatalf("expected block splits, got %d blocks", st.Blocks)
	}
	checkLCP(t, pt, oracle, keys)
	checkGet(t, pt, oracle, keys)
}

func TestInsertDuplicatesLastWins(t *testing.T) {
	pt, _ := newTestTrie(2, Config{})
	k := bitstr.MustParse("0101")
	pt.Insert([]bitstr.String{k, k, k}, []uint64{1, 2, 3})
	vals, found := pt.Get([]bitstr.String{k})
	if !found[0] || vals[0] != 3 {
		t.Fatalf("Get = %d,%v", vals[0], found[0])
	}
	if pt.KeyCount() != 1 {
		t.Fatalf("KeyCount = %d", pt.KeyCount())
	}
}

func TestInsertEmptyKey(t *testing.T) {
	pt, _ := newTestTrie(2, Config{})
	pt.Insert([]bitstr.String{bitstr.Empty}, []uint64{42})
	vals, found := pt.Get([]bitstr.String{bitstr.Empty})
	if !found[0] || vals[0] != 42 {
		t.Fatal("empty key lost")
	}
}

func TestDeleteMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	keys := make([]bitstr.String, 400)
	for i := range keys {
		keys[i] = randomKey(r, 80)
		if i > 0 && r.Intn(4) == 0 {
			keys[i] = keys[r.Intn(i)].Concat(randomKey(r, 20))
		}
	}
	pt, oracle := buildBoth(t, 8, Config{}, keys)
	// Delete batches mixing present and absent keys.
	for round := 0; round < 4; round++ {
		var batch []bitstr.String
		for i := 0; i < 80; i++ {
			if r.Intn(2) == 0 {
				batch = append(batch, keys[r.Intn(len(keys))])
			} else {
				batch = append(batch, randomKey(r, 90))
			}
		}
		got := pt.Delete(batch)
		for i, k := range batch {
			want := oracle.Delete(k)
			if got[i] != want {
				t.Fatalf("round %d: Delete(%q) = %v, want %v", round, k, got[i], want)
			}
		}
		if pt.KeyCount() != oracle.KeyCount() {
			t.Fatalf("round %d: KeyCount %d vs %d", round, pt.KeyCount(), oracle.KeyCount())
		}
		var queries []bitstr.String
		for i := 0; i < 60; i++ {
			queries = append(queries, keys[r.Intn(len(keys))])
		}
		checkLCP(t, pt, oracle, queries)
		checkGet(t, pt, oracle, queries)
	}
}

func TestDeleteEverything(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	keys := make([]bitstr.String, 150)
	seen := map[string]bool{}
	for i := range keys {
		for {
			keys[i] = randomKey(r, 60)
			if !seen[keys[i].String()] {
				seen[keys[i].String()] = true
				break
			}
		}
	}
	pt, oracle := buildBoth(t, 4, Config{}, keys)
	res := pt.Delete(keys)
	for i, ok := range res {
		if !ok {
			t.Fatalf("Delete(%q) = false", keys[i])
		}
	}
	if pt.KeyCount() != 0 {
		t.Fatalf("KeyCount = %d after full delete", pt.KeyCount())
	}
	_ = oracle
	// The index must still answer queries correctly (all LCPs 0 except
	// the empty prefix).
	got := pt.LCP(keys[:20])
	for i, g := range got {
		if g != 0 {
			t.Fatalf("LCP(%q) = %d after full delete", keys[i], g)
		}
	}
	// And accept re-inserts.
	pt.Insert(keys[:50], make([]uint64, 50))
	if pt.KeyCount() != 50 {
		t.Fatalf("KeyCount = %d after re-insert", pt.KeyCount())
	}
}

func TestSubtreeQueryMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	keys := make([]bitstr.String, 300)
	for i := range keys {
		keys[i] = randomKey(r, 60)
		if i > 0 && r.Intn(3) == 0 {
			keys[i] = keys[r.Intn(i)].Concat(randomKey(r, 15))
		}
	}
	pt, oracle := buildBoth(t, 8, Config{}, keys)
	prefixes := []bitstr.String{bitstr.Empty}
	for i := 0; i < 40; i++ {
		k := keys[r.Intn(len(keys))]
		prefixes = append(prefixes, k.Prefix(r.Intn(k.Len()+1)))
		prefixes = append(prefixes, randomKey(r, 30))
	}
	for _, pre := range prefixes {
		got := pt.SubtreeQuery(pre)
		want := oracle.SubtreeKeys(pre)
		if len(got) != len(want) {
			t.Fatalf("SubtreeQuery(%q): %d results, want %d", pre, len(got), len(want))
		}
		for i := range want {
			if !bitstr.Equal(got[i].Key, want[i].Key) || got[i].Value != want[i].Value {
				t.Fatalf("SubtreeQuery(%q)[%d] = (%q,%d), want (%q,%d)",
					pre, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

func TestMixedWorkloadLongRun(t *testing.T) {
	// Interleaved insert/delete/query batches against the oracle, with
	// block splits and removals exercised along the way.
	r := rand.New(rand.NewSource(29))
	pt, _ := newTestTrie(8, Config{BlockWords: 32})
	oracle := trie.New()
	var pool []bitstr.String
	for step := 0; step < 12; step++ {
		switch step % 3 {
		case 0: // insert
			n := 60 + r.Intn(60)
			keys := make([]bitstr.String, n)
			values := make([]uint64, n)
			for i := range keys {
				keys[i] = randomKey(r, 70)
				if len(pool) > 0 && r.Intn(2) == 0 {
					keys[i] = pool[r.Intn(len(pool))].Concat(randomKey(r, 25))
				}
				values[i] = r.Uint64() >> 1
				pool = append(pool, keys[i])
				oracle.Insert(keys[i], values[i])
			}
			pt.Insert(keys, values)
		case 1: // delete
			if len(pool) == 0 {
				continue
			}
			n := 30 + r.Intn(30)
			batch := make([]bitstr.String, n)
			for i := range batch {
				batch[i] = pool[r.Intn(len(pool))]
			}
			got := pt.Delete(batch)
			for i, k := range batch {
				if got[i] != oracle.Delete(k) {
					t.Fatalf("step %d: delete disagreement on %q", step, k)
				}
			}
		default: // queries
			var queries []bitstr.String
			for i := 0; i < 50; i++ {
				if len(pool) > 0 && i%2 == 0 {
					queries = append(queries, pool[r.Intn(len(pool))])
				} else {
					queries = append(queries, randomKey(r, 90))
				}
			}
			checkLCP(t, pt, oracle, queries)
			checkGet(t, pt, oracle, queries)
		}
		if pt.KeyCount() != oracle.KeyCount() {
			t.Fatalf("step %d: KeyCount %d vs %d", step, pt.KeyCount(), oracle.KeyCount())
		}
	}
}

func TestNarrowHashTriggersRehashButStaysCorrect(t *testing.T) {
	// A 16-bit hash over a few hundred strings makes collisions likely;
	// verification must catch them, re-hash, and still produce correct
	// results.
	r := rand.New(rand.NewSource(31))
	keys := make([]bitstr.String, 250)
	for i := range keys {
		keys[i] = randomKey(r, 100)
		if i > 0 && r.Intn(3) == 0 {
			keys[i] = keys[r.Intn(i)].Concat(randomKey(r, 30))
		}
	}
	pt, _ := newTestTrie(4, Config{HashWidth: 16, MaxRedo: 60})
	oracle := trie.New()
	values := make([]uint64, len(keys))
	for i := range keys {
		values[i] = uint64(i)
		oracle.Insert(keys[i], values[i])
	}
	pt.Build(keys, values)
	var queries []bitstr.String
	for i := 0; i < 200; i++ {
		queries = append(queries, randomKey(r, 120))
		k := keys[r.Intn(len(keys))]
		queries = append(queries, k.Prefix(r.Intn(k.Len()+1)))
	}
	checkLCP(t, pt, oracle, queries)
	checkGet(t, pt, oracle, queries)
	t.Logf("rehashes=%d redos=%d", pt.Rehashes(), pt.Redos())
}

func TestSpaceLinear(t *testing.T) {
	// Q_D = O(L_D/w + n_D): total module space must scale linearly in the
	// data, not with P or key length beyond L/w.
	r := rand.New(rand.NewSource(37))
	keys := make([]bitstr.String, 1000)
	for i := range keys {
		keys[i] = randomKey(r, 128)
	}
	pt, sys := newTestTrie(16, Config{})
	values := make([]uint64, len(keys))
	pt.Build(keys, values)
	total, _ := sys.SpaceWords()
	// Data is ≤ 1000 keys · ~2 words + structure overhead.
	if total > 60*len(keys) {
		t.Fatalf("space %d words for %d keys", total, len(keys))
	}
}

func TestCollectStats(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	keys := make([]bitstr.String, 500)
	for i := range keys {
		keys[i] = randomKey(r, 100)
	}
	pt, _ := newTestTrie(8, Config{})
	pt.Build(keys, make([]uint64, len(keys)))
	st := pt.CollectStats()
	if st.Blocks < 5 || st.Regions < 1 || st.SpaceWords == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestSubtreeQueryBatchMatchesSingles(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	keys := make([]bitstr.String, 250)
	for i := range keys {
		keys[i] = randomKey(r, 50)
		if i > 0 && r.Intn(3) == 0 {
			keys[i] = keys[r.Intn(i)].Concat(randomKey(r, 12))
		}
	}
	pt, oracle := buildBoth(t, 8, Config{}, keys)
	var prefixes []bitstr.String
	for i := 0; i < 25; i++ {
		k := keys[r.Intn(len(keys))]
		prefixes = append(prefixes, k.Prefix(r.Intn(k.Len()+1)))
		prefixes = append(prefixes, randomKey(r, 20))
	}
	prefixes = append(prefixes, bitstr.Empty, prefixes[0]) // incl. duplicate
	before := pt.System().Metrics()
	batch := pt.SubtreeQueryBatch(prefixes)
	batchRounds := pt.System().Metrics().Sub(before).Rounds
	for i, pre := range prefixes {
		want := oracle.SubtreeKeys(pre)
		if len(batch[i]) != len(want) {
			t.Fatalf("batch[%d] (%q): %d results, want %d", i, pre, len(batch[i]), len(want))
		}
		for j := range want {
			if !bitstr.Equal(batch[i][j].Key, want[j].Key) || batch[i][j].Value != want[j].Value {
				t.Fatalf("batch[%d][%d] mismatch", i, j)
			}
		}
	}
	// The whole batch must share rounds: far fewer than one pass per query.
	if batchRounds > 4*int64(len(prefixes)) {
		t.Fatalf("batch used %d rounds for %d queries", batchRounds, len(prefixes))
	}
}

func TestSubtreeQueryBatchEmptyAndMissing(t *testing.T) {
	pt, _ := newTestTrie(4, Config{})
	pt.Build([]bitstr.String{bitstr.MustParse("0101")}, []uint64{1})
	res := pt.SubtreeQueryBatch([]bitstr.String{
		bitstr.MustParse("11"), // absent
		bitstr.MustParse("01"), // present
	})
	if len(res[0]) != 0 || len(res[1]) != 1 {
		t.Fatalf("results: %d/%d", len(res[0]), len(res[1]))
	}
}

func TestValidateAfterEveryPhase(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	pt, _ := newTestTrie(8, Config{BlockWords: 32})
	oracle := trie.New()
	check := func(phase string) {
		t.Helper()
		if err := pt.Validate(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	check("empty")
	keys := make([]bitstr.String, 600)
	values := make([]uint64, 600)
	for i := range keys {
		keys[i] = randomKey(r, 120)
		if i > 0 && r.Intn(3) == 0 {
			keys[i] = keys[r.Intn(i)].Concat(randomKey(r, 30))
		}
		values[i] = uint64(i)
		oracle.Insert(keys[i], values[i])
	}
	pt.Build(keys, values)
	check("after build")
	fresh := make([]bitstr.String, 300)
	for i := range fresh {
		fresh[i] = randomKey(r, 120)
		oracle.Insert(fresh[i], 1)
	}
	pt.Insert(fresh, make([]uint64, len(fresh)))
	check("after insert (splits)")
	var victims []bitstr.String
	victims = append(victims, keys[:300]...)
	victims = append(victims, fresh[:150]...)
	got := pt.Delete(victims)
	for i, k := range victims {
		if got[i] != oracle.Delete(k) {
			t.Fatalf("delete disagreement on %q", k)
		}
	}
	check("after delete (removals)")
	if pt.KeyCount() != oracle.KeyCount() {
		t.Fatalf("KeyCount %d vs %d", pt.KeyCount(), oracle.KeyCount())
	}
	pt.LCP(keys[:100])
	check("after queries")
}
