package core

// Golden tests reproducing the paper's worked examples (Figures 1 and 2).
// Figure 3/4 (meta-tree decomposition) live in package hvm and Figure 5
// (two-layer index) in package yfast.

import (
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/querytrie"
	"github.com/pimlab/pimtrie/internal/trie"
)

// figure1Keys spells the data trie of Figure 1: the root branches into
// "00001" (a stored key with a further "101" extension) and "1"; under
// "1" a node "10" branches to "1011" with children "10110000" and
// "1011111"(-ish) and to "111". We reconstruct a consistent key set whose
// compressed trie contains the paper's highlighted prefixes: stored keys
// chosen so that "10100" is a hidden (mid-edge) prefix, as in the figure.
var figure1Keys = []string{
	"00001",    // value node with two children in the figure
	"00001101", // "00001" + edge "101"
	"1010011",  // makes "10100" a hidden node on an edge
	"10101",    // sibling branch below "1010"
	"111",
}

// figure1Queries are the query strings of Figure 1 with their expected
// LCP lengths against the data above:
//   - "00001001": shares "00001" then diverges → 5
//   - "101001":   matched through the hidden node "10100" → entire query
//     present as a prefix of "1010011" → 6
//   - "101011":   shares "10101" → 5
var figure1Queries = []struct {
	q   string
	lcp int
}{
	{"00001001", 5},
	{"101001", 6},
	{"101011", 5},
}

func TestFigure1QueryTrieShape(t *testing.T) {
	var batch []bitstr.String
	for _, fq := range figure1Queries {
		batch = append(batch, bitstr.MustParse(fq.q))
	}
	qt := querytrie.Build(batch)
	// Figure 1's query trie: root --00001001--> leaf and root --101--> a
	// branch node "1010" ... with our batch, the compressed query trie
	// has a root with two subtrees and exactly 3 leaves + branch "1010".
	if qt.Trie.KeyCount() != 3 {
		t.Fatalf("query trie keys = %d", qt.Trie.KeyCount())
	}
	var branchDepths []int
	qt.Trie.WalkPreorder(func(n *trie.Node) bool {
		if !n.HasValue && n.Parent() != nil {
			branchDepths = append(branchDepths, n.Depth)
		}
		return true
	})
	// The only internal branch is at "1010" (depth 4), as in the figure.
	if len(branchDepths) != 1 || branchDepths[0] != 4 {
		t.Fatalf("query trie branches at %v, want [4]", branchDepths)
	}
}

func TestFigure1Matching(t *testing.T) {
	keys := make([]bitstr.String, len(figure1Keys))
	values := make([]uint64, len(figure1Keys))
	for i, k := range figure1Keys {
		keys[i] = bitstr.MustParse(k)
		values[i] = uint64(i + 1)
	}
	for _, p := range []int{1, 4} {
		pt, _ := newTestTrie(p, Config{})
		pt.Build(keys, values)
		var batch []bitstr.String
		for _, fq := range figure1Queries {
			batch = append(batch, bitstr.MustParse(fq.q))
		}
		got := pt.LCP(batch)
		for i, fq := range figure1Queries {
			if got[i] != fq.lcp {
				t.Errorf("P=%d: LCP(%q) = %d, want %d", p, fq.q, got[i], fq.lcp)
			}
		}
	}
}

func TestFigure2BlockDecomposition(t *testing.T) {
	// Figure 2 decomposes the Figure 1 data trie into blocks whose roots
	// are ε, "101"(-ish) and deeper prefixes, with mirror nodes (dashed
	// circles) for child block roots. We force small blocks so the tiny
	// trie actually splits, then verify the structural properties the
	// figure illustrates:
	//   1. every block root's string is a prefix of some stored key;
	//   2. mirrors in a parent block replicate exactly its child block
	//      roots, and carry no value;
	//   3. queries are answered identically before and after blocking.
	full := trie.New()
	keys := make([]bitstr.String, len(figure1Keys))
	for i, k := range figure1Keys {
		keys[i] = bitstr.MustParse(k)
		full.Insert(keys[i], uint64(i+1))
	}
	cuts := full.Partition(trie.MinBlockWords)
	blocks := full.ExtractBlocks(cuts)
	for _, b := range blocks {
		if b.RootString.Len() > 0 {
			onPath := false
			for _, k := range keys {
				if k.HasPrefix(b.RootString) || b.RootString.HasPrefix(k) {
					onPath = true
				}
			}
			if !onPath {
				t.Fatalf("block root %q not on any key path", b.RootString)
			}
		}
		for _, m := range b.Mirrors {
			if m.Node.HasValue || !m.Node.Mirror {
				t.Fatal("mirror carries a value or lost its flag")
			}
			child := blocks[m.ChildIndex]
			if !bitstr.Equal(m.RootString, child.RootString) {
				t.Fatalf("mirror points at %q, child root is %q", m.RootString, child.RootString)
			}
		}
	}

	// End-to-end equivalence through the distributed structure with the
	// same tiny block bound.
	pt, _ := newTestTrie(3, Config{BlockWords: trie.MinBlockWords})
	values := make([]uint64, len(keys))
	for i := range values {
		values[i] = uint64(i + 1)
	}
	pt.Build(keys, values)
	if st := pt.CollectStats(); st.Blocks < 2 {
		t.Fatalf("figure-2 build produced %d blocks; expected a real decomposition", st.Blocks)
	}
	for _, fq := range figure1Queries {
		got := pt.LCP([]bitstr.String{bitstr.MustParse(fq.q)})
		if got[0] != fq.lcp {
			t.Errorf("blocked LCP(%q) = %d, want %d", fq.q, got[0], fq.lcp)
		}
	}
	// Block 2 of the figure is non-critical for the example batch: the
	// query trie positions between block roots pass through it without a
	// compressed node. We can't name blocks, but we can check that the
	// batch's verified hits are fewer than the total blocks (non-critical
	// blocks are skipped): implied by bounded false hits and exact LCPs.
	if pt.FalseHits() != 0 {
		t.Fatalf("full-width hash produced %d false hits", pt.FalseHits())
	}
}
