package trie

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

func buildRandomTrie(r *rand.Rand, n, maxLen int) (*Trie, []string) {
	tr := New()
	seen := map[string]bool{}
	var keys []string
	for len(keys) < n {
		k := randomKey(r, maxLen)
		if len(keys) > 0 && r.Intn(3) == 0 {
			k = keys[r.Intn(len(keys))] + randomKey(r, maxLen/4)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		tr.Insert(bitstr.MustParse(k), uint64(len(keys)))
	}
	return tr, keys
}

func TestSplitLongEdges(t *testing.T) {
	tr := New()
	long := strings.Repeat("01", 1000) // 2000-bit single edge
	tr.Insert(bitstr.MustParse(long), 1)
	added := tr.SplitLongEdges(256)
	if added == 0 {
		t.Fatal("no anchors added")
	}
	tr.WalkPreorder(func(n *Node) bool {
		for b := 0; b < 2; b++ {
			if e := n.Child[b]; e != nil && e.Label.Len() > 256 {
				t.Fatalf("edge of %d bits survived", e.Label.Len())
			}
		}
		return true
	})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(bitstr.MustParse(long)); !ok || v != 1 {
		t.Fatal("key lost after splitting")
	}
	if got := tr.LCPLen(bitstr.MustParse(long[:777] + "0")); got != 777 {
		t.Fatalf("LCP after split = %d", got)
	}
}

// weightWords returns the block weight of the subtree rooted at n when
// no further cuts exist below it: the bound Partition keeps.
func weightWords(n *Node, isCut func(*Node) bool) int {
	acc := NodeCostWords
	for b := 0; b < 2; b++ {
		e := n.Child[b]
		if e == nil {
			continue
		}
		acc += EdgeCostWords + e.Label.Words()
		if isCut != nil && isCut(e.To) {
			acc += NodeCostWords // mirror
			continue
		}
		acc += weightWords(e.To, isCut)
	}
	return acc
}

func TestPartitionBlockWeightBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, maxWords := range []int{32, 64, 256} {
		tr, _ := buildRandomTrie(r, 800, 300)
		total := tr.SizeWords()
		cuts := tr.Partition(maxWords)
		isCut := map[*Node]bool{}
		for _, c := range cuts {
			isCut[c] = true
		}
		check := func(root *Node) {
			w := weightWords(root, func(n *Node) bool { return isCut[n] })
			if w > maxWords {
				t.Fatalf("maxWords=%d: block weight %d exceeds bound", maxWords, w)
			}
		}
		check(tr.Root())
		for _, c := range cuts {
			check(c)
		}
		// Block count bound: O(total/maxWords).
		if len(cuts)+1 > 6*total/maxWords+2 {
			t.Fatalf("maxWords=%d: %d blocks for %d words", maxWords, len(cuts)+1, total)
		}
	}
}

func TestPartitionDeepSkewedTrie(t *testing.T) {
	// A pathological comb: one long spine with leaves hanging off —
	// maximal trie imbalance, the case that breaks layered indexes (§3.4).
	tr := New()
	spine := ""
	for i := 0; i < 400; i++ {
		spine += "0"
		tr.Insert(bitstr.MustParse(spine+"1"), uint64(i))
	}
	cuts := tr.Partition(64)
	if len(cuts) == 0 {
		t.Fatal("comb trie produced a single block")
	}
	isCut := map[*Node]bool{}
	for _, c := range cuts {
		isCut[c] = true
	}
	if w := weightWords(tr.Root(), func(n *Node) bool { return isCut[n] }); w > 64 {
		t.Fatalf("root block weight %d", w)
	}
	for _, c := range cuts {
		if w := weightWords(c, func(n *Node) bool { return isCut[n] && n != c }); w > 64 {
			t.Fatalf("block weight %d", w)
		}
	}
}

func TestPartitionPanicsBelowMinimum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for tiny bound")
		}
	}()
	New().Partition(8)
}

func TestExtractBlocksReassembleKeys(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr, keys := buildRandomTrie(r, 400, 200)
	cuts := tr.Partition(64)
	blocks := tr.ExtractBlocks(cuts)
	if len(blocks) != len(cuts)+1 {
		t.Fatalf("blocks = %d, cuts = %d", len(blocks), len(cuts))
	}
	// Every block trie must be structurally sound.
	for i, b := range blocks {
		if err := b.Trie.CheckInvariants(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	// Block 0 is rooted at the trie root.
	if blocks[0].RootString.Len() != 0 {
		t.Fatalf("block 0 root string %q", blocks[0].RootString)
	}
	// Reassemble all keys: for each block, each stored key is
	// RootString · (path within block); union must equal the original set.
	got := map[string]uint64{}
	for _, b := range blocks {
		for _, kv := range b.Trie.SubtreeKeys(bitstr.Empty) {
			full := b.RootString.Concat(kv.Key).String()
			if _, dup := got[full]; dup {
				t.Fatalf("key %q stored in two blocks", full)
			}
			got[full] = kv.Value
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("reassembled %d keys, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if v, ok := got[k]; !ok || v != uint64(i+1) {
			t.Fatalf("key %q lost or wrong value", k)
		}
	}
}

func TestExtractBlocksMirrorLinks(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr, _ := buildRandomTrie(r, 500, 150)
	cuts := tr.Partition(48)
	blocks := tr.ExtractBlocks(cuts)
	childSeen := map[int]bool{0: true} // block 0 has no parent mirror
	for _, b := range blocks {
		for _, m := range b.Mirrors {
			if !m.Node.Mirror {
				t.Fatal("mirror ref points at non-mirror node")
			}
			if m.Node.HasValue {
				t.Fatal("mirror carries a value")
			}
			child := blocks[m.ChildIndex]
			// The mirror's full string must equal the child block's root.
			full := b.RootString.Concat(NodeString(m.Node))
			if !bitstr.Equal(full, child.RootString) {
				t.Fatalf("mirror string %q != child root %q", full, child.RootString)
			}
			if childSeen[m.ChildIndex] {
				t.Fatalf("block %d mirrored twice", m.ChildIndex)
			}
			childSeen[m.ChildIndex] = true
		}
	}
	if len(childSeen) != len(blocks) {
		t.Fatalf("only %d of %d blocks are linked", len(childSeen), len(blocks))
	}
}

func TestExtractBlocksPreservesValuesAtCutNodes(t *testing.T) {
	// A key that ends exactly at a block root must live in the child
	// block's root, not in the parent's mirror.
	tr := New()
	deep := strings.Repeat("10", 200)
	tr.Insert(bitstr.MustParse(deep), 42)
	tr.Insert(bitstr.MustParse(deep[:100]), 7) // forces a mid node
	cuts := tr.Partition(MinBlockWords)
	blocks := tr.ExtractBlocks(cuts)
	found := false
	for _, b := range blocks {
		for _, kv := range b.Trie.SubtreeKeys(bitstr.Empty) {
			if b.RootString.Concat(kv.Key).String() == deep[:100] && kv.Value == 7 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("value at internal key lost in extraction")
	}
}

func TestExtractNoCutsSingleBlock(t *testing.T) {
	tr := New()
	for _, k := range []string{"00", "01", "11"} {
		tr.Insert(bitstr.MustParse(k), 1)
	}
	blocks := tr.ExtractBlocks(nil)
	if len(blocks) != 1 || len(blocks[0].Mirrors) != 0 {
		t.Fatalf("unexpected blocks: %d", len(blocks))
	}
	if blocks[0].Trie.KeyCount() != 3 {
		t.Fatalf("keys = %d", blocks[0].Trie.KeyCount())
	}
}

func TestWeightWordsMatchesSizeForWholeTrie(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tr, _ := buildRandomTrie(r, 200, 100)
	w := weightWords(tr.Root(), nil)
	// WeightWords uses ceil-per-edge word counts; SizeWords pools bits, so
	// WeightWords ≥ SizeWords but within one word per edge.
	sz := tr.SizeWords()
	if w < sz-tr.NodeCount() || w > sz+tr.NodeCount() {
		t.Fatalf("WeightWords %d vs SizeWords %d (± %d)", w, sz, tr.NodeCount())
	}
}

func TestBlockSizeWordsSaneOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr, _ := buildRandomTrie(r, 300, 120)
	blocks := tr.ExtractBlocks(tr.Partition(64))
	sizes := make([]int, len(blocks))
	for i, b := range blocks {
		sizes[i] = b.SizeWords()
		if sizes[i] <= 0 {
			t.Fatal("non-positive block size")
		}
	}
	sort.Ints(sizes)
	if sizes[len(sizes)-1] > 64+70 { // trie bound + root-string charge slack
		t.Fatalf("largest block %d words", sizes[len(sizes)-1])
	}
}
