package trie

import (
	"math/rand"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// randomKey draws a key with skewed shared prefixes so walks exercise
// deep descents, hidden-node endings and early divergence alike.
func randomFlatKey(rng *rand.Rand, maxBits int) bitstr.String {
	n := rng.Intn(maxBits + 1)
	bits := make([]byte, n)
	for i := range bits {
		// Bias toward zero so prefixes collide often.
		bits[i] = '0'
		if rng.Intn(3) == 0 {
			bits[i] = '1'
		}
	}
	return bitstr.MustParse(string(bits))
}

func buildRandomFlatTrie(rng *rand.Rand, n, maxBits int) (*Trie, []bitstr.String) {
	t := New()
	var keys []bitstr.String
	for i := 0; i < n; i++ {
		k := randomFlatKey(rng, maxBits)
		t.Insert(k, uint64(i)*2654435761)
		keys = append(keys, k)
	}
	return t, keys
}

func TestFlattenFaithful(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		tr, _ := buildRandomFlatTrie(rng, 200+rng.Intn(800), 180)
		f := Flatten(tr)
		if err := f.CheckAgainst(tr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlatGetLCPMatchTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		tr, stored := buildRandomFlatTrie(rng, 500, 150)
		f := Flatten(tr)

		// Query mix: stored keys, prefixes of stored keys (hidden and
		// compressed endings), perturbed keys, fresh random keys, and
		// the empty key — at a batch size that is not a lane multiple.
		var queries []bitstr.String
		queries = append(queries, bitstr.Empty)
		for i := 0; i < 500; i++ {
			switch rng.Intn(4) {
			case 0:
				queries = append(queries, stored[rng.Intn(len(stored))])
			case 1:
				k := stored[rng.Intn(len(stored))]
				queries = append(queries, k.Prefix(rng.Intn(k.Len()+1)))
			case 2:
				k := stored[rng.Intn(len(stored))]
				if k.Len() == 0 {
					queries = append(queries, k)
					continue
				}
				i := rng.Intn(k.Len())
				flip := k.Slice(0, i).Concat(bitstr.FromUint64(uint64(1-k.BitAt(i)), 1)).Concat(k.Suffix(i + 1))
				queries = append(queries, flip)
			default:
				queries = append(queries, randomFlatKey(rng, 200))
			}
		}

		vals := make([]uint64, len(queries))
		found := make([]bool, len(queries))
		f.GetBatch(queries, vals, found)

		for i, q := range queries {
			wv, wf := tr.Get(q)
			if vals[i] != wv && wf || found[i] != wf {
				t.Fatalf("trial %d query %d: flat Get=(%d,%v) trie=(%d,%v) key=%v",
					trial, i, vals[i], found[i], wv, wf, q)
			}
			if fl, wl := f.LCPLen(q), tr.LCPLen(q); fl != wl {
				t.Fatalf("trial %d query %d: flat LCP=%d trie=%d key=%v", trial, i, fl, wl, q)
			}
			// The single-key Get agrees with the batch.
			if v, ok := f.Get(q); v != vals[i] && found[i] || ok != found[i] {
				t.Fatalf("trial %d query %d: single Get disagrees with batch", trial, i)
			}
		}
	}
}

func TestFlatKeysAndSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, stored := buildRandomFlatTrie(rng, 600, 120)
	f := Flatten(tr)

	want := tr.SubtreeKeys(bitstr.Empty)
	got := f.Keys()
	if len(want) != len(got) {
		t.Fatalf("Keys: %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bitstr.Equal(want[i].Key, got[i].Key) || want[i].Value != got[i].Value {
			t.Fatalf("Keys[%d]: got (%v,%d) want (%v,%d)", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}

	prefixes := []bitstr.String{bitstr.Empty}
	for i := 0; i < 200; i++ {
		k := stored[rng.Intn(len(stored))]
		prefixes = append(prefixes, k.Prefix(rng.Intn(k.Len()+1)))
		prefixes = append(prefixes, randomFlatKey(rng, 60))
	}
	for _, p := range prefixes {
		want := tr.SubtreeKeys(p)
		got := f.SubtreeKeys(p)
		if len(want) != len(got) {
			t.Fatalf("SubtreeKeys(%v): %d pairs, want %d", p, len(got), len(want))
		}
		for i := range want {
			if !bitstr.Equal(want[i].Key, got[i].Key) || want[i].Value != got[i].Value {
				t.Fatalf("SubtreeKeys(%v)[%d] mismatch", p, i)
			}
		}
	}
}

func TestFlatEmptyAndTiny(t *testing.T) {
	f := Flatten(New())
	if v, ok := f.Get(bitstr.MustParse("01")); ok || v != 0 {
		t.Fatalf("empty trie Get found something")
	}
	if got := f.LCPLen(bitstr.MustParse("0101")); got != 0 {
		t.Fatalf("empty trie LCP = %d", got)
	}
	if kvs := f.Keys(); len(kvs) != 0 {
		t.Fatalf("empty trie has keys")
	}

	tr := New()
	tr.Insert(bitstr.Empty, 42)
	f = Flatten(tr)
	if v, ok := f.Get(bitstr.Empty); !ok || v != 42 {
		t.Fatalf("empty-key Get = (%d,%v)", v, ok)
	}
}
