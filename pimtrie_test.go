package pimtrie

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	idx := New(8, Options{Seed: 1})
	keys := []Key{
		KeyFromString("apple"),
		KeyFromString("application"),
		KeyFromString("banana"),
		KeyFromBits("0101"),
		KeyFromUint(0xdeadbeef, 32),
	}
	values := []uint64{1, 2, 3, 4, 5}
	idx.Insert(keys, values)
	if idx.Len() != 5 {
		t.Fatalf("Len = %d", idx.Len())
	}
	vals, found := idx.Get(keys)
	for i := range keys {
		if !found[i] || vals[i] != values[i] {
			t.Fatalf("Get(%d) = %d,%v", i, vals[i], found[i])
		}
	}
	// "appl" is a shared prefix of apple/application: 4 bytes + 'e' vs 'i'
	// share 5 further bits (0110 0101 vs 0110 1001 share "0110").
	lcp := idx.LCP([]Key{KeyFromString("apply")})
	if lcp[0] < 4*8 {
		t.Fatalf("LCP(apply) = %d bits", lcp[0])
	}
	// Prefix scan under "appl".
	kvs := idx.Subtree(KeyFromString("appl"))
	if len(kvs) != 2 {
		t.Fatalf("Subtree(appl) = %d results", len(kvs))
	}
	del := idx.Delete([]Key{KeyFromString("apple"), KeyFromString("nope")})
	if !del[0] || del[1] {
		t.Fatalf("Delete = %v", del)
	}
	if idx.Len() != 4 {
		t.Fatalf("Len after delete = %d", idx.Len())
	}
}

func TestPublicAPILoadAndMetrics(t *testing.T) {
	idx := New(16, Options{Seed: 2})
	r := rand.New(rand.NewSource(3))
	n := 1000
	keys := make([]Key, n)
	values := make([]uint64, n)
	for i := range keys {
		keys[i] = KeyFromUint(r.Uint64(), 64)
		values[i] = uint64(i)
	}
	idx.Load(keys, values)
	if idx.Len() != n {
		t.Fatalf("Len = %d", idx.Len())
	}
	before := idx.Metrics()
	idx.LCP(keys[:256])
	d := idx.Metrics().Sub(before)
	if d.Rounds == 0 || d.IOWords == 0 {
		t.Fatalf("metrics did not move: %+v", d)
	}
	if d.Rounds > 16 {
		t.Fatalf("LCP batch used %d rounds; expected a small constant", d.Rounds)
	}
	if idx.SpaceWords() == 0 || idx.P() != 16 {
		t.Fatal("accessors broken")
	}
	st := idx.Stats()
	if st.Blocks == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPublicAPIEmptyIndex(t *testing.T) {
	idx := New(4, Options{})
	if got := idx.LCP([]Key{KeyFromString("x")}); got[0] != 0 {
		t.Fatalf("LCP on empty = %d", got[0])
	}
	if kvs := idx.Subtree(KeyFromString("x")); kvs != nil {
		t.Fatalf("Subtree on empty = %v", kvs)
	}
	if _, found := idx.Get([]Key{KeyFromString("x")}); found[0] {
		t.Fatal("Get on empty found something")
	}
}

// TestPrepareBatchIsApply pins the *Prepared forms as sugar: on two
// identically loaded indexes, each form gives the plain op's answers and
// a bit-identical Metrics delta, per-module vectors included.
func TestPrepareBatchIsApply(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	keys := make([]Key, 300)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = KeyFromUint(r.Uint64(), 64)
		vals[i] = uint64(i + 1)
	}
	queries := make([]Key, 128)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = keys[r.Intn(len(keys))]
		} else {
			queries[i] = KeyFromUint(r.Uint64(), 64)
		}
	}
	prefixes := []Key{keys[0].Prefix(6), keys[1].Prefix(10), KeyFromBits("")}
	ins := make([]Key, 64)
	insVals := make([]uint64, len(ins))
	for i := range ins {
		ins[i] = KeyFromUint(r.Uint64(), 64)
		insVals[i] = uint64(i + 1000)
	}
	plain, sugar := New(8, Options{Seed: 5}), New(8, Options{Seed: 5})
	plain.Load(keys, vals)
	sugar.Load(keys, vals)
	for _, op := range []struct {
		name         string
		plain, sugar func(ix *Index) any
	}{
		{"LCP", func(ix *Index) any { return ix.LCP(queries) },
			func(ix *Index) any { return ix.LCPPrepared(ix.PrepareBatch(queries)) }},
		{"Get", func(ix *Index) any { v, f := ix.Get(queries); return []any{v, f} },
			func(ix *Index) any { v, f := ix.GetPrepared(ix.PrepareBatch(queries)); return []any{v, f} }},
		{"Subtrees", func(ix *Index) any { return ix.Subtrees(prefixes) },
			func(ix *Index) any { return ix.SubtreesPrepared(ix.PrepareBatch(prefixes)) }},
		{"Insert", func(ix *Index) any { ix.Insert(ins, insVals); return ix.Len() },
			func(ix *Index) any { ix.InsertPrepared(ix.PrepareBatch(ins), insVals); return ix.Len() }},
		{"Delete", func(ix *Index) any { return ix.Delete(ins[:32]) },
			func(ix *Index) any { return ix.DeletePrepared(ix.PrepareBatch(ins[:32])) }},
	} {
		pb, sb := plain.Metrics(), sugar.Metrics()
		want, got := op.plain(plain), op.sugar(sugar)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: prepared answers %v, plain %v", op.name, got, want)
		}
		if pd, sd := plain.Metrics().Sub(pb), sugar.Metrics().Sub(sb); !reflect.DeepEqual(pd, sd) {
			t.Fatalf("%s: prepared metrics delta %+v, plain %+v", op.name, sd, pd)
		}
	}
}
