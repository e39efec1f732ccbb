package querytrie

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/trie"
)

func randomKey(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte('0' + byte(r.Intn(2)))
	}
	return b.String()
}

// edgeBits sums the label lengths of every edge of t.
func edgeBits(t *trie.Trie) int {
	n := 0
	t.WalkPreorder(func(x *trie.Node) bool {
		if e := x.ParentEdge; e != nil {
			n += e.Label.Len()
		}
		return true
	})
	return n
}

func TestBuildMatchesDirectInsertion(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(200)
		batch := make([]bitstr.String, n)
		strs := make([]string, n)
		for i := range batch {
			strs[i] = randomKey(r, 80)
			if i > 0 && r.Intn(4) == 0 {
				strs[i] = strs[r.Intn(i)] // duplicates
			}
			if i > 0 && r.Intn(4) == 0 {
				strs[i] = strs[r.Intn(i)] + randomKey(r, 20) // shared prefixes
			}
			batch[i] = bitstr.MustParse(strs[i])
		}
		qt := Build(batch)
		if err := qt.Trie.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reference trie by direct insertion.
		ref := trie.New()
		uniq := map[string]bool{}
		for _, s := range strs {
			uniq[s] = true
			ref.Insert(bitstr.MustParse(s), 0)
		}
		if qt.Trie.KeyCount() != len(uniq) {
			t.Fatalf("trial %d: %d keys, want %d", trial, qt.Trie.KeyCount(), len(uniq))
		}
		if qt.Trie.NodeCount() != ref.NodeCount() || edgeBits(qt.Trie) != edgeBits(ref) {
			t.Fatalf("trial %d: structure mismatch: %d/%d nodes, %d/%d bits",
				trial, qt.Trie.NodeCount(), ref.NodeCount(), edgeBits(qt.Trie), edgeBits(ref))
		}
	}
}

func TestNodesHoldTheirKeys(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	batch := make([]bitstr.String, 300)
	for i := range batch {
		batch[i] = bitstr.MustParse(randomKey(r, 60))
	}
	qt := Build(batch)
	for i, n := range qt.Nodes {
		if got := trie.NodeString(n); !bitstr.Equal(got, qt.Keys[i]) {
			t.Fatalf("Nodes[%d] represents %q, want %q", i, got, qt.Keys[i])
		}
		if !n.HasValue || n.Value != uint64(i) {
			t.Fatalf("Nodes[%d] value = %d/%v", i, n.Value, n.HasValue)
		}
	}
}

func TestSlotMapsBatchToUnique(t *testing.T) {
	batch := []bitstr.String{
		bitstr.MustParse("01"),
		bitstr.MustParse("0"),
		bitstr.MustParse("01"), // duplicate
		bitstr.MustParse(""),
		bitstr.MustParse("0"), // duplicate
	}
	qt := Build(batch)
	if len(qt.Keys) != 3 {
		t.Fatalf("unique keys = %d", len(qt.Keys))
	}
	for i, b := range batch {
		if !bitstr.Equal(qt.Keys[qt.Slot[i]], b) {
			t.Fatalf("Slot[%d] points at %q, want %q", i, qt.Keys[qt.Slot[i]], b)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	qt := Build(nil)
	if qt.Trie.KeyCount() != 0 || len(qt.Keys) != 0 {
		t.Fatal("empty batch produced keys")
	}
}

func TestEmptyStringKey(t *testing.T) {
	qt := Build([]bitstr.String{bitstr.Empty, bitstr.MustParse("1")})
	if len(qt.Keys) != 2 {
		t.Fatalf("keys = %d", len(qt.Keys))
	}
	if qt.Nodes[0] != qt.Trie.Root() {
		t.Fatal("empty key not at root")
	}
}

func TestPrefixChainBatch(t *testing.T) {
	// Every key a prefix of the next: the degenerate chain that stresses
	// prefix-first ordering in BuildFromSorted.
	var batch []bitstr.String
	s := ""
	for i := 0; i < 64; i++ {
		s += "1"
		batch = append(batch, bitstr.MustParse(s))
	}
	rand.New(rand.NewSource(3)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	qt := Build(batch)
	if err := qt.Trie.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if qt.Trie.KeyCount() != 64 {
		t.Fatalf("keys = %d", qt.Trie.KeyCount())
	}
	// Chain tries have exactly one node per key plus the root.
	if qt.Trie.NodeCount() != 65 {
		t.Fatalf("nodes = %d", qt.Trie.NodeCount())
	}
}

func TestNodeHashesMatchDirect(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	h := hashing.New(9, 0)
	batch := make([]bitstr.String, 150)
	for i := range batch {
		batch[i] = bitstr.MustParse(randomKey(r, 100))
	}
	qt := Build(batch)
	hashes := qt.NodeHashes(h, nil)
	count := 0
	seen := make(map[int32]bool)
	qt.Trie.WalkPreorder(func(n *trie.Node) bool {
		count++
		if n.Index < 0 || int(n.Index) >= len(hashes) || seen[n.Index] {
			t.Fatalf("node Index %d is not a dense permutation of [0,%d)", n.Index, len(hashes))
		}
		seen[n.Index] = true
		want := h.Hash(trie.NodeString(n))
		if hashes[n.Index] != want {
			t.Fatalf("node hash mismatch at depth %d", n.Depth)
		}
		return true
	})
	if count != len(hashes) {
		t.Fatalf("hashed %d of %d nodes", len(hashes), count)
	}
}

func BenchmarkBuild4k(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	batch := make([]bitstr.String, 4096)
	for i := range batch {
		batch[i] = bitstr.FromUint64(r.Uint64(), 64)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(batch)
	}
}

func TestPreorderScaffolding(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	batch := make([]bitstr.String, 300)
	for i := range batch {
		batch[i] = bitstr.MustParse(randomKey(r, 120))
	}
	qt := Build(batch)
	qt.Trie.SplitLongEdges(64) // restructure after Build, as core does
	qt.NodeHashes(hashing.New(9, 0), nil)

	i := 0
	qt.Trie.WalkPreorder(func(n *trie.Node) bool {
		if i >= len(qt.PreNodes) || qt.PreNodes[i] != n {
			t.Fatalf("PreNodes[%d] is not the %d-th preorder node", i, i)
		}
		if int(n.Index) != i {
			t.Fatalf("node Index %d at preorder position %d", n.Index, i)
		}
		par := int32(-1)
		if p := n.Parent(); p != nil {
			par = p.Index
		}
		if qt.PreParent[i] != par {
			t.Fatalf("PreParent[%d] = %d, want %d", i, qt.PreParent[i], par)
		}
		i++
		return true
	})
	if i != len(qt.PreNodes) {
		t.Fatalf("scaffolding has %d nodes, walk saw %d", len(qt.PreNodes), i)
	}
}
