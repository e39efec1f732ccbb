package bitstr

import (
	"math/rand"
	"sort"
	"testing"
)

// adversarialKeys builds the key families the MSD radix sort finds
// hardest: long shared prefixes that force deep chunk recursion,
// saturated all-ones chunk words (the PR3 saturation regression),
// strings ending exactly on word boundaries (the out-of-band exhausted
// flag), and duplicate keys.
func adversarialKeys(rng *rand.Rand, n int) []String {
	prefix := make([]byte, 0, 300)
	for i := 0; i < 257; i++ { // > 4 words of shared prefix
		prefix = append(prefix, byte(rng.Intn(2)))
	}
	keys := make([]String, 0, n)
	for len(keys) < n {
		switch rng.Intn(6) {
		case 0: // shared long prefix + random tail
			tail := make([]byte, rng.Intn(80))
			for i := range tail {
				tail[i] = byte(rng.Intn(2))
			}
			keys = append(keys, fromBits(append(append([]byte{}, prefix...), tail...)))
		case 1: // saturated chunks: all-ones words, varying lengths
			w := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
			keys = append(keys, New(w, 1+rng.Intn(192)))
		case 2: // exact word-boundary lengths
			nw := 1 + rng.Intn(3)
			w := make([]uint64, nw)
			for i := range w {
				w[i] = rng.Uint64()
			}
			keys = append(keys, New(w, nw*64))
		case 3: // near-saturated: all ones except one low bit
			w := []uint64{^uint64(0) ^ 1<<uint(rng.Intn(64)), ^uint64(0)}
			keys = append(keys, New(w, 64+rng.Intn(65)))
		case 4: // short random
			bits := make([]byte, rng.Intn(10))
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			keys = append(keys, fromBits(bits))
		default: // duplicate an earlier key
			if len(keys) > 0 {
				keys = append(keys, keys[rng.Intn(len(keys))])
			} else {
				keys = append(keys, Empty)
			}
		}
	}
	return keys
}

// TestArgSortPropertyAdversarial checks, across procs values, that
// ArgSort (a) yields a valid permutation, (b) orders the keys exactly
// as the sort.SliceStable reference, and (c) produces the identical
// permutation at every procs value — the determinism contract the
// batch pipeline relies on. Equal keys carry no order guarantee, so
// (b) compares the sorted key sequences, not the index permutations.
func TestArgSortPropertyAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(4000)
		keys := adversarialKeys(rng, n)

		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool { return Compare(keys[ref[a]], keys[ref[b]]) < 0 })

		var base []int
		for _, procs := range []int{1, 2, 4, 8} {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			ArgSort(keys, idx, procs)

			seen := make([]bool, n)
			for _, j := range idx {
				if j < 0 || j >= n || seen[j] {
					t.Fatalf("trial %d procs %d: not a permutation", trial, procs)
				}
				seen[j] = true
			}
			for i := 0; i < n; i++ {
				if !Equal(keys[idx[i]], keys[ref[i]]) {
					t.Fatalf("trial %d procs %d: key order diverges from SliceStable at %d:\n got %v\nwant %v",
						trial, procs, i, keys[idx[i]], keys[ref[i]])
				}
			}
			if procs == 1 {
				base = append([]int{}, idx...)
			} else {
				for i := range idx {
					if idx[i] != base[i] {
						t.Fatalf("trial %d: permutation differs between procs=1 and procs=%d at %d", trial, procs, i)
					}
				}
			}
		}
	}
}

// FuzzArgSort drives the same three properties from fuzzer-chosen
// bytes: each byte pair (len, fill) becomes a key; fill 0xFF yields
// saturated words, fill 0x00 shared-zero prefixes.
func FuzzArgSort(f *testing.F) {
	f.Add([]byte{0xFF, 0xFF, 0x40, 0xFF, 0x41, 0xFF, 0x3F, 0x00})
	f.Add([]byte{10, 0x00, 200, 0x00, 200, 0x01, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []String
		for i := 0; i+1 < len(data) && len(keys) < 256; i += 2 {
			n := int(data[i]) * 2 // up to 510 bits: multi-word
			fill := data[i+1]
			bits := make([]byte, n)
			for j := range bits {
				bits[j] = (fill >> uint(j%8)) & 1
			}
			keys = append(keys, fromBits(bits))
		}
		if len(keys) == 0 {
			return
		}
		n := len(keys)
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool { return Compare(keys[ref[a]], keys[ref[b]]) < 0 })
		var base []int
		for _, procs := range []int{1, 3, 8} {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			ArgSort(keys, idx, procs)
			for i := 0; i < n; i++ {
				if !Equal(keys[idx[i]], keys[ref[i]]) {
					t.Fatalf("procs %d: order diverges from SliceStable at %d", procs, i)
				}
			}
			if procs == 1 {
				base = append([]int{}, idx...)
			} else {
				for i := range idx {
					if idx[i] != base[i] {
						t.Fatalf("permutation differs between procs=1 and procs=%d", procs)
					}
				}
			}
		}
	})
}

// TestBuilderMatchesConcat checks Builder against the Concat/Slice
// reference on random append/truncate sequences.
func TestBuilderMatchesConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var b Builder
		ref := Empty
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0: // Append a random string
				bits := make([]byte, rng.Intn(150))
				for i := range bits {
					bits[i] = byte(rng.Intn(2))
				}
				s := fromBits(bits)
				b.Append(s)
				ref = ref.Concat(s)
			case 1: // AppendWord
				n := rng.Intn(65)
				w := rng.Uint64()
				b.AppendWord(w, n)
				ref = ref.Concat(New([]uint64{w}, n))
			case 2: // AppendRange
				bits := make([]byte, 10+rng.Intn(200))
				for i := range bits {
					bits[i] = byte(rng.Intn(2))
				}
				s := fromBits(bits)
				from := rng.Intn(len(bits))
				to := from + rng.Intn(len(bits)-from+1)
				b.AppendRange(s, from, to)
				ref = ref.Concat(s.Slice(from, to))
			case 3: // Truncate
				n := rng.Intn(ref.Len() + 1)
				b.Truncate(n)
				ref = ref.Prefix(n)
			}
			if got := b.String(); !Equal(got, ref) {
				t.Fatalf("trial %d step %d: builder %v != ref %v", trial, step, got, ref)
			}
			if b.Len() != ref.Len() {
				t.Fatalf("trial %d step %d: Len %d != %d", trial, step, b.Len(), ref.Len())
			}
		}
	}
}
