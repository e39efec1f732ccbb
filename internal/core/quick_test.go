package core

// Property-based tests: testing/quick drives randomized scenarios whose
// invariants must hold for arbitrary seeds and shapes — the
// equivalence-with-oracle property over generated op sequences, LCP
// laws, and structural conservation.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/trie"
)

// scenario runs a seed-determined op sequence on both the PIM-trie and
// the oracle and reports whether every observation agreed.
func scenario(seed int64, p int, hashWidth uint) bool {
	return scenarioCfg(seed, p, Config{HashWidth: hashWidth, MaxRedo: 60})
}

func scenarioCfg(seed int64, p int, cfg Config) bool {
	_, ok := runScenario(seed, p, cfg, 70)
	return ok
}

// runScenario is scenarioCfg with new keys of up to l bits, extensions of
// pooled keys of up to 2l/7 and queries of up to 9l/7; it also returns
// the trie the sequence left behind.
func runScenario(seed int64, p int, cfg Config, l int) (*PIMTrie, bool) {
	r := rand.New(rand.NewSource(seed))
	pt, _ := newTestTrie(p, cfg)
	oracle := trie.New()
	var pool []bitstr.String
	mk := func() bitstr.String {
		k := randomKey(r, l)
		if len(pool) > 0 && r.Intn(3) == 0 {
			k = pool[r.Intn(len(pool))].Concat(randomKey(r, l*2/7))
		}
		return k
	}
	for step := 0; step < 6; step++ {
		switch r.Intn(4) {
		case 0, 1: // insert batch
			n := 10 + r.Intn(60)
			keys := make([]bitstr.String, n)
			values := make([]uint64, n)
			for i := range keys {
				keys[i] = mk()
				values[i] = r.Uint64() >> 1
				pool = append(pool, keys[i])
				oracle.Insert(keys[i], values[i])
			}
			pt.Insert(keys, values)
		case 2: // delete batch
			n := 5 + r.Intn(30)
			keys := make([]bitstr.String, n)
			for i := range keys {
				if len(pool) > 0 && r.Intn(2) == 0 {
					keys[i] = pool[r.Intn(len(pool))]
				} else {
					keys[i] = randomKey(r, l)
				}
			}
			got := pt.Delete(keys)
			for i, k := range keys {
				if got[i] != oracle.Delete(k) {
					return pt, false
				}
			}
		default: // query batch
			n := 10 + r.Intn(40)
			queries := make([]bitstr.String, n)
			for i := range queries {
				switch {
				case len(pool) > 0 && r.Intn(2) == 0:
					k := pool[r.Intn(len(pool))]
					queries[i] = k.Prefix(r.Intn(k.Len() + 1))
				default:
					queries[i] = randomKey(r, l*9/7)
				}
			}
			lcp := pt.LCP(queries)
			vals, found := pt.Get(queries)
			for i, q := range queries {
				if lcp[i] != oracle.LCPLen(q) {
					return pt, false
				}
				wv, wok := oracle.Get(q)
				if found[i] != wok || (wok && vals[i] != wv) {
					return pt, false
				}
			}
		}
		if pt.KeyCount() != oracle.KeyCount() {
			return pt, false
		}
	}
	return pt, pt.Validate() == nil
}

// classDeep reports whether some region of pt has a depth bound at least
// one whole word past the end of the word its root lies in — what a
// region needs before any segment probed against it takes the class path.
func classDeep(pt *PIMTrie) bool {
	const w = bitstr.WordBits
	deep := false
	for i := 0; i < pt.sys.P(); i++ {
		pt.sys.Module(i).EachID(func(_ uint64, obj any) {
			if ro, ok := obj.(*regionObj); ok && ro.r.MaxLen() >= ro.r.Root.Len-ro.r.Root.Len%w+2*w {
				deep = true
			}
		})
	}
	return deep
}

func TestQuickScenarioEquivalence(t *testing.T) {
	f := func(seed int64) bool { return scenario(seed, 4, 0) }
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickScenarioPivotProbing(t *testing.T) {
	// With keys of up to 400 bits, region windows run words past their
	// start, so region probes take the §4.4.2 pivot-class path; the
	// answers must still be the oracle's, including under a narrow hash.
	deep := 0
	f := func(seed int64) bool {
		for _, c := range []struct {
			p   int
			cfg Config
		}{{4, Config{MaxRedo: 60}}, {8, Config{HashWidth: 20, MaxRedo: 80}}} {
			pt, ok := runScenario(seed, c.p, c.cfg, 400)
			if !ok {
				return false
			}
			if classDeep(pt) {
				deep++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
	if deep == 0 {
		t.Fatal("no scenario left a region deep enough for the class path; the test is vacuous")
	}
}

func TestQuickScenarioNarrowHash(t *testing.T) {
	// The same equivalence must survive a collision-prone 18- or 20-bit
	// hash, also over more modules.
	f := func(seed int64) bool {
		return scenario(seed, 4, 18) && scenarioCfg(seed, 8, Config{HashWidth: 20, MaxRedo: 80})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestQuickLCPLaws(t *testing.T) {
	// Algebraic laws of LCP against a fixed index:
	//  1. 0 ≤ LCP(q) ≤ |q|;
	//  2. monotone under prefix: LCP(q[:i]) ≥ min(i, LCP(q));
	//  3. a stored key has LCP = its length;
	//  4. extending a stored key changes nothing below the key's length.
	r := rand.New(rand.NewSource(271))
	keys := make([]bitstr.String, 150)
	for i := range keys {
		keys[i] = randomKey(r, 60)
	}
	pt, _ := newTestTrie(4, Config{})
	pt.Build(keys, make([]uint64, len(keys)))

	f := func(pick uint16, cut uint16, ext []bool) bool {
		k := keys[int(pick)%len(keys)]
		extBits := make([]byte, len(ext))
		for i, b := range ext {
			extBits[i] = '0'
			if b {
				extBits[i] = '1'
			}
		}
		q := k.Concat(bitstr.MustParse(string(extBits)))
		i := int(cut) % (q.Len() + 1)
		res := pt.LCP([]bitstr.String{q, q.Prefix(i), k})
		full, pre, kk := res[0], res[1], res[2]
		if full < 0 || full > q.Len() {
			return false
		}
		if min := i; full < i {
			min = full
			_ = min
		}
		wantPre := i
		if full < i {
			wantPre = full
		}
		// Law 2 with equality: LCP(q[:i]) == min(i, LCP(q)).
		if pre != wantPre {
			return false
		}
		// Law 3/4.
		return kk == k.Len() && full >= k.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickInsertThenSubtreeConservation(t *testing.T) {
	// Inserting any batch under a marker prefix must make Subtree(marker)
	// return exactly the deduplicated batch.
	marker := bitstr.MustParse("11110000111100001111")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pt, _ := newTestTrie(4, Config{})
		// Background noise keys.
		noise := make([]bitstr.String, 80)
		for i := range noise {
			noise[i] = randomKey(r, 40)
			if noise[i].HasPrefix(marker) {
				noise[i] = noise[i].Concat(bitstr.FromUint64(0, 1)) // cannot happen (len<20) but keep total
			}
		}
		pt.Build(noise, make([]uint64, len(noise)))
		n := 1 + r.Intn(50)
		keys := make([]bitstr.String, n)
		uniq := map[string]bool{}
		for i := range keys {
			keys[i] = marker.Concat(randomKey(r, 30))
			uniq[keys[i].String()] = true
		}
		pt.Insert(keys, make([]uint64, n))
		got := pt.SubtreeQuery(marker)
		if len(got) != len(uniq) {
			return false
		}
		for _, kv := range got {
			if !uniq[kv.Key.String()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
