package hvm

import (
	"math/rand"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
)

func mkNode(h uint64) *MetaNode {
	return &MetaNode{Hash: h, Len: int(h % 97), SLast: bitstr.MustParse("01"), Block: pim.Addr{Module: 0, ID: h}}
}

// buildTree builds a region from a parent-index array: parents[i] is the
// index of node i's parent, with parents[0] ignored (node 0 is the root).
func buildTree(t *testing.T, parents []int) (*Region, []*MetaNode) {
	t.Helper()
	nodes := make([]*MetaNode, len(parents))
	for i := range nodes {
		nodes[i] = mkNode(uint64(i + 1))
	}
	r := NewRegion(nodes[0])
	for i := 1; i < len(parents); i++ {
		if err := r.Insert(nodes[parents[i]], nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r, nodes
}

// figure3Parents encodes the 12-node meta-tree of Figure 3:
// 1→2, 1→3, 2→4, 3→5, 3→6, 3→7, 4→8, 5→9, 5→10, 6→11, 8→12
// (0-indexed below).
var figure3Parents = []int{0, 0, 0, 1, 2, 2, 2, 3, 4, 4, 5, 7}

func TestRegionInsertLookupRemove(t *testing.T) {
	r, nodes := buildTree(t, figure3Parents)
	if r.Len() != 12 {
		t.Fatalf("Len = %d", r.Len())
	}
	for _, n := range nodes {
		if r.Lookup(n.Hash) != n {
			t.Fatalf("Lookup(%#x) failed", n.Hash)
		}
	}
	// Node 11 (index 11, hash 12) is a leaf under node index 7.
	if root, spawned := r.RemoveAny(nodes[11]); root != nodes[0] || spawned != nil {
		t.Fatal("removing a leaf moved the root or split the region")
	}
	if r.Len() != 11 || r.Lookup(nodes[11].Hash) != nil {
		t.Fatal("RemoveAny failed")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCollision(t *testing.T) {
	r, nodes := buildTree(t, []int{0, 0})
	dup := mkNode(nodes[1].Hash)
	err := r.Insert(nodes[0], dup)
	if _, ok := err.(ErrHashCollision); !ok {
		t.Fatalf("expected ErrHashCollision, got %v", err)
	}
}

func TestCutNodeLemma45(t *testing.T) {
	// Lemma 4.5: for any out-tree of n nodes there is a cut node whose
	// out-edge removal leaves components of at most (n+1)/2 nodes.
	// Check over random trees and adversarial shapes.
	r := rand.New(rand.NewSource(1))
	shapes := [][]int{
		figure3Parents,
		{0},          // single node
		{0, 0},       // pair
		{0, 0, 1, 2}, // path
	}
	// Random trees.
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(80)
		parents := make([]int, n)
		for i := 1; i < n; i++ {
			parents[i] = r.Intn(i)
		}
		shapes = append(shapes, parents)
	}
	// Long path and star.
	path := make([]int, 65)
	star := make([]int, 65)
	for i := 1; i < 65; i++ {
		path[i] = i - 1
		star[i] = 0
	}
	shapes = append(shapes, path, star)

	for si, parents := range shapes {
		reg, _ := buildTree(t, parents)
		n := reg.Len()
		_, maxComp := CutNode(reg.Root)
		if maxComp > (n+1)/2 {
			t.Fatalf("shape %d (n=%d): cut leaves component of %d > (n+1)/2", si, n, maxComp)
		}
	}
}

func TestSplitProducesValidRegions(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(100)
		parents := make([]int, n)
		for i := 1; i < n; i++ {
			parents[i] = r.Intn(i)
		}
		reg, _ := buildTree(t, parents)
		_, parts := reg.Split()
		if len(parts) == 0 {
			t.Fatalf("trial %d: Split produced nothing", trial)
		}
		total := reg.Len()
		for _, p := range parts {
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			total += p.Len()
			// Each component obeys the Lemma 4.5 bound.
			if p.Len() > (n+1)/2 {
				t.Fatalf("trial %d: split component of %d nodes (n=%d)", trial, p.Len(), n)
			}
		}
		if err := reg.Validate(); err != nil {
			t.Fatalf("trial %d: remainder invalid: %v", trial, err)
		}
		if reg.Len() > (n+1)/2 {
			t.Fatalf("trial %d: remainder of %d nodes (n=%d)", trial, reg.Len(), n)
		}
		if total != n {
			t.Fatalf("trial %d: split lost nodes: %d of %d", trial, total, n)
		}
	}
}

func TestRecursiveDecomposeFigure4(t *testing.T) {
	// Figure 4: the 12-node meta-tree with K_SMB = 3: every piece of the
	// resulting meta-block tree has < 3 nodes, no node is lost, and the
	// height is logarithmic.
	reg, _ := buildTree(t, figure3Parents)
	mb := RecursiveDecompose(reg, 3)
	if got := mb.TotalNodes(); got != 12 {
		t.Fatalf("decomposition lost nodes: %d", got)
	}
	for _, p := range mb.Pieces() {
		if p.Len() >= 3 && p.Len() >= 2 {
			t.Fatalf("piece of %d nodes survived (K_SMB=3)", p.Len())
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if h := mb.Height(); h > 6 {
		t.Fatalf("meta-block tree height %d", h)
	}
}

func TestRecursiveDecomposeHeightLogarithmic(t *testing.T) {
	// Lemma 4.6: with every split bounded by (n+1)/2, the meta-block tree
	// height is O(log n). Test on adversarial shapes at K_SMB = 4.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 50 + r.Intn(400)
		parents := make([]int, n)
		shape := trial % 3
		for i := 1; i < n; i++ {
			switch shape {
			case 0:
				parents[i] = i - 1 // path
			case 1:
				parents[i] = 0 // star
			default:
				parents[i] = r.Intn(i)
			}
		}
		reg, _ := buildTree(t, parents)
		mb := RecursiveDecompose(reg, 4)
		if mb.TotalNodes() != n {
			t.Fatalf("trial %d: lost nodes", trial)
		}
		// Generous constant: height ≤ 4·log2(n) + 4.
		limit := 4
		for m := n; m > 1; m >>= 1 {
			limit += 4
		}
		if h := mb.Height(); h > limit {
			t.Fatalf("trial %d (shape %d, n=%d): height %d > %d", trial, shape, n, h, limit)
		}
	}
}

func TestSizeWords(t *testing.T) {
	reg, _ := buildTree(t, figure3Parents)
	if w := reg.SizeWords(); w != 12*NodeCostWords+2 {
		t.Fatalf("SizeWords = %d", w)
	}
}

// TestRegionMaxLenExact takes random regions apart through every mutator
// that moves members — Split, RemoveAny (leaf, interior, promoting root,
// splitting root), Reindex, NewRegionTree — and after each step
// every region's depth bound must be its deepest member's length
// (Validate checks it): it comes down when a deepest member leaves, it
// does not ratchet.
func TestRegionMaxLenExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	check := func(trial int, regs ...*Region) {
		t.Helper()
		for _, reg := range regs {
			if reg.Root == nil {
				if reg.MaxLen() != 0 || reg.Len() != 0 {
					t.Fatalf("trial %d: emptied region keeps bound %d over %d members", trial, reg.MaxLen(), reg.Len())
				}
				continue
			}
			if err := reg.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(80)
		parents := make([]int, n)
		for i := 1; i < n; i++ {
			parents[i] = r.Intn(i)
		}
		reg, nodes := buildTree(t, parents)
		// One member far below the rest: the bound must follow it out.
		deep := nodes[1+r.Intn(n-1)]
		deep.Len = 5000
		if err := reg.Reindex(); err != nil {
			t.Fatal(err)
		}
		if reg.MaxLen() != 5000 {
			t.Fatalf("trial %d: Reindex left bound %d", trial, reg.MaxLen())
		}
		if tree := NewRegionTree(reg.Root); tree.MaxLen() != 5000 {
			t.Fatalf("trial %d: NewRegionTree bound %d", trial, tree.MaxLen())
		}
		regs := []*Region{reg}
		if n > 4 && trial%2 == 0 {
			_, parts := reg.Split()
			regs = append(regs, parts...)
			check(trial, regs...)
		}
		// Dismantle every region node by node in random order.
		for len(regs) > 0 {
			cur := regs[len(regs)-1]
			if cur.Root == nil {
				regs = regs[:len(regs)-1]
				continue
			}
			var members []*MetaNode
			cur.Walk(func(m *MetaNode) { members = append(members, m) })
			victim := members[r.Intn(len(members))]
			_, spawned := cur.RemoveAny(victim)
			regs = append(regs, spawned...)
			check(trial, regs...)
		}
	}
}
