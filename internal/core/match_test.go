package core

// White-box tests of the matching machinery: piece decomposition,
// local matching, suffix windows and chunking.

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/querytrie"
	"github.com/pimlab/pimtrie/internal/trie"
)

func prepFor(t *PIMTrie, batch []bitstr.String) *prep {
	return t.prepare(batch)
}

func findEdgePos(qt *querytrie.QueryTrie, s bitstr.String) qpos {
	// Locate the position representing string s in the query trie.
	n := qt.Trie.Root()
	pos := 0
	for pos < s.Len() {
		e := n.Child[s.BitAt(pos)]
		if e == nil {
			panic("findEdgePos: string not on trie")
		}
		l := bitstr.LCP(e.Label, s.Suffix(pos))
		if pos+l == s.Len() {
			return onEdge(e, l)
		}
		if l < e.Label.Len() {
			panic("findEdgePos: string diverges")
		}
		pos += l
		n = e.To
	}
	return atNode(n)
}

// reachOf and exactOf look a query node up in a sparse piece report.
func reachOf(rep *matchReport, n *trie.Node) (int, bool) {
	for _, r := range rep.reach {
		if int(r.idx) == n.Index {
			return int(r.depth), true
		}
	}
	return 0, false
}

func exactOf(rep *matchReport, n *trie.Node) (exactHit, bool) {
	for _, e := range rep.exact {
		if int(e.idx) == n.Index {
			return e.hit, true
		}
	}
	return exactHit{}, false
}

// nodesOwned counts the query nodes the last decompose gave to pc.
func nodesOwned(pt *PIMTrie, pc *piece) int {
	n := 0
	for _, owner := range pt.anchorBuf {
		if owner == pc {
			n++
		}
	}
	return n
}

// stopsAt builds the per-edge hit table for hand-placed hit positions,
// given edge by edge in ascending offset.
func stopsAt(qt *querytrie.QueryTrie, at ...qpos) *edgeStops {
	s := &edgeStops{span: make([]hitSpan, qt.Trie.NodeCount())}
	for _, p := range at {
		h := hitRec{pos: p}
		e := hitEdge(h)
		sp := &s.span[e.To.Index]
		if sp.n == 0 {
			sp.lo = int32(len(s.offs))
		}
		sp.n++
		s.offs = append(s.offs, int32(hitOff(h, e)))
	}
	return s
}

func TestDecomposeSinglePiece(t *testing.T) {
	pt, _ := newTestTrie(2, Config{})
	p := prepFor(pt, []bitstr.String{
		bitstr.MustParse("0101"),
		bitstr.MustParse("0110"),
		bitstr.MustParse("111"),
	})
	root := hitRec{pos: atNode(p.qt.Trie.Root()), info: t2meta(pt)}
	pieces := pt.decompose(p, []hitRec{root}, false)
	if len(pieces) != 1 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	pc := pieces[0]
	// The single piece owns every compressed node and every edge bit.
	if got := nodesOwned(pt, pc); got != p.qt.Trie.NodeCount() {
		t.Fatalf("piece owns %d of %d nodes", got, p.qt.Trie.NodeCount())
	}
	bits := 0
	for _, s := range pc.segs {
		bits += s.end - s.off
	}
	if bits != p.qt.Trie.EdgeBits() {
		t.Fatalf("piece covers %d of %d bits", bits, p.qt.Trie.EdgeBits())
	}
	if len(pt.stops.offs) != 0 {
		t.Fatalf("unexpected stops: %v", pt.stops.offs)
	}
}

func t2meta(pt *PIMTrie) metaInfo {
	return pt.masterInfo(pt.h.Out(hashing.EmptyValue()))
}

func TestDecomposeMidEdgeHit(t *testing.T) {
	pt, _ := newTestTrie(2, Config{})
	p := prepFor(pt, []bitstr.String{bitstr.MustParse("00001111")})
	root := hitRec{pos: atNode(p.qt.Trie.Root()), info: t2meta(pt)}
	// A hit 3 bits down the single edge.
	hitPos := findEdgePos(p.qt, bitstr.MustParse("000"))
	mid := hitRec{pos: hitPos, depth: 3, val: pt.h.Hash(bitstr.MustParse("000")), info: t2meta(pt)}
	pieces := pt.decompose(p, []hitRec{root, mid}, false)
	if len(pieces) != 2 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	var rootPiece, midPiece *piece
	for _, pc := range pieces {
		if pc.hit.depth == 0 {
			rootPiece = pc
		} else {
			midPiece = pc
		}
	}
	// Root piece covers bits (0,3], stops at the hit; mid piece covers
	// (3,8] and owns the leaf node.
	bitsOf := func(pc *piece) int {
		n := 0
		for _, s := range pc.segs {
			n += s.end - s.off
		}
		return n
	}
	if bitsOf(rootPiece) != 3 || bitsOf(midPiece) != 5 {
		t.Fatalf("bit split %d/%d, want 3/5", bitsOf(rootPiece), bitsOf(midPiece))
	}
	if stops := pt.stops.on(hitPos.edge); len(stops) != 1 || stops[0] != 3 {
		t.Fatalf("stops on the hit's edge: %v, want [3]", stops)
	}
	if got := nodesOwned(pt, midPiece); got != 1 {
		t.Fatalf("mid piece owns %d nodes", got)
	}
	// Segment hash values must be consistent: probing the mid piece from
	// its startVal reproduces the full-string hashes.
	seg := midPiece.segs[0]
	v := seg.startVal
	for i := seg.off; i < seg.end; i++ {
		v = pt.h.ExtendBit(v, seg.edge.Label.BitAt(i))
	}
	if v != pt.h.Hash(bitstr.MustParse("00001111")) {
		t.Fatal("segment startVal chain broken")
	}
}

func TestMatchPieceExactAndDivergence(t *testing.T) {
	// Data block: keys 0101, 0110 relative to its root.
	block := trie.New()
	block.Insert(bitstr.MustParse("0101"), 7)
	block.Insert(bitstr.MustParse("0110"), 8)
	// Query trie: one key equal to a stored key, one diverging mid-edge.
	qt := querytrie.Build([]bitstr.String{
		bitstr.MustParse("0101"),
		bitstr.MustParse("0111"),
	})
	rep := matchPiece(atNode(qt.Trie.Root()), nil, block, func(int) {})
	n0 := qt.Nodes[0] // "0101"
	n1 := qt.Nodes[1] // "0111"
	if d, _ := reachOf(rep, n0); d != 4 {
		t.Fatalf("reach(0101) = %d", d)
	}
	if ex, ok := exactOf(rep, n0); !ok || !ex.hasValue || ex.value != 7 {
		t.Fatalf("exact(0101) = %+v, %v", ex, ok)
	}
	// "0111" shares "011" with "0110": reach 3, no exact hit.
	if d, _ := reachOf(rep, n1); d != 3 {
		t.Fatalf("reach(0111) = %d", d)
	}
	if ex, ok := exactOf(rep, n1); ok && ex.hasValue {
		t.Fatalf("unexpected exact for 0111: %+v", ex)
	}
}

func TestMatchPieceStopsAtMirror(t *testing.T) {
	block := trie.New()
	block.Insert(bitstr.MustParse("0011"), 1)
	// Turn the leaf into a mirror (child block root replica).
	var leaf *trie.Node
	block.WalkPreorder(func(n *trie.Node) bool {
		if n.HasValue {
			leaf = n
		}
		return true
	})
	leaf.HasValue = false
	leaf.Mirror = true

	qt := querytrie.Build([]bitstr.String{bitstr.MustParse("001100")})
	rep := matchPiece(atNode(qt.Trie.Root()), nil, block, func(int) {})
	// The walk must stop at the mirror: reach = 4 (conservative; a deeper
	// pair owns the continuation), never beyond.
	if got, _ := reachOf(rep, qt.Nodes[0]); got != 4 {
		t.Fatalf("reach through mirror = %d, want 4", got)
	}
	if ex, _ := exactOf(rep, qt.Nodes[0]); ex.hasValue {
		t.Fatal("mirror reported a value")
	}
}

func TestMatchPieceRespectsStops(t *testing.T) {
	block := trie.New()
	block.Insert(bitstr.MustParse("000111"), 9)
	qt := querytrie.Build([]bitstr.String{bitstr.MustParse("000111")})
	// Stop 2 bits down the (single) query edge.
	stops := stopsAt(qt, findEdgePos(qt, bitstr.MustParse("00")))
	rep := matchPiece(atNode(qt.Trie.Root()), stops, block, func(int) {})
	// The piece must not claim anything past the stop: the leaf gets no
	// reach entry from this pair (the deeper pair owns it) or at most the
	// stop depth.
	if d, ok := reachOf(rep, qt.Nodes[0]); ok && d > 2 {
		t.Fatalf("piece crossed its stop: reach %d", d)
	}
}

// TestMatchPieceStopsOnOneEdge puts two mid-edge hits and an edge-end
// hit on one query edge: every piece halts at the next hit below its own
// start, whichever piece the later hits bound.
func TestMatchPieceStopsOnOneEdge(t *testing.T) {
	qt := querytrie.Build([]bitstr.String{bitstr.MustParse("000111"), bitstr.MustParse("00011101")})
	mid, leaf := qt.Nodes[0], qt.Nodes[1] // "000111" and, below it, "00011101"
	e := mid.ParentEdge
	stops := stopsAt(qt,
		findEdgePos(qt, bitstr.MustParse("00")),
		findEdgePos(qt, bitstr.MustParse("0001")),
		atNode(mid))
	m := &matcher{stops: stops}
	for _, c := range []struct{ off, want int }{{0, 2}, {1, 2}, {2, 4}, {3, 4}, {4, 6}, {5, 6}, {6, 6}} {
		if got := m.nextStop(e, c.off); got != c.want {
			t.Fatalf("nextStop(off %d) = %d, want %d", c.off, got, c.want)
		}
	}
	if got := m.nextStop(leaf.ParentEdge, 0); got != 3 {
		t.Fatalf("nextStop on the hit-free edge = %d, want 3 (none)", got)
	}
	// A piece's root string equals its block root's, so the block under
	// test holds the stored key's remainder below the piece's start.
	below := func(rel string) *trie.Trie {
		b := trie.New()
		b.Insert(bitstr.MustParse(rel), 9)
		return b
	}
	// From the root: halts at depth 2 having claimed only the root.
	rep := matchPiece(atNode(qt.Trie.Root()), stops, below("00011101"), func(int) {})
	if len(rep.reach) != 1 || int(rep.reach[0].idx) != qt.Trie.Root().Index {
		t.Fatalf("root piece claimed past its stop: %+v", rep)
	}
	// From the first mid-edge hit: walks bits (2,4] and halts again.
	rep = matchPiece(onEdge(e, 2), stops, below("011101"), func(int) {})
	if len(rep.reach) != 0 || rep.words != 0 {
		t.Fatalf("middle piece claimed a node: %+v", rep)
	}
	// From the second: consumes the edge and records its To node, and —
	// that node being a hit itself — does not descend to the leaf.
	rep = matchPiece(onEdge(e, 4), stops, below("1101"), func(int) {})
	if d, ok := reachOf(rep, mid); !ok || d != 6 {
		t.Fatalf("last piece: reach(000111) = %d, %v; want 6", d, ok)
	}
	if _, ok := reachOf(rep, leaf); ok {
		t.Fatalf("last piece descended past the edge-end hit: %+v", rep)
	}
	// The piece of the edge-end hit owns everything below.
	rep = matchPiece(atNode(mid), stops, below("01"), func(int) {})
	if d, _ := reachOf(rep, leaf); d != 8 {
		t.Fatalf("edge-end piece: reach(leaf) = %d, want 8", d)
	}
	if ex, ok := exactOf(rep, leaf); !ok || ex.value != 9 {
		t.Fatalf("edge-end piece: exact(leaf) = %+v, %v", ex, ok)
	}
}

func TestSuffixWindow(t *testing.T) {
	tr := trie.New()
	long := bitstr.MustParse("0101010101" + "1100110011" + "0000111100")
	tr.Insert(long, 1)
	tr.Insert(bitstr.MustParse("01010"), 2) // forces a branch at depth 5
	// Find the edge below the node at depth 5 and take a window there.
	var e *trie.Edge
	tr.WalkPreorder(func(n *trie.Node) bool {
		if n.Depth == 5 {
			for b := 0; b < 2; b++ {
				if c := n.Child[b]; c != nil && c.Label.Len() > 10 {
					e = c
				}
			}
		}
		return true
	})
	if e == nil {
		t.Fatal("test setup: edge not found")
	}
	for _, off := range []int{1, 5, e.Label.Len()} {
		depth := e.From.Depth + off
		win := suffixWindow(e, off, 8)
		wantLen := 8
		if depth < 8 {
			wantLen = depth
		}
		if win.Len() != wantLen {
			t.Fatalf("window length %d at depth %d", win.Len(), depth)
		}
		want := long.Prefix(depth)
		want = want.Suffix(want.Len() - wantLen)
		if !bitstr.Equal(win, want) {
			t.Fatalf("window at depth %d = %q, want %q", depth, win, want)
		}
	}
}

func TestChunkEdgesCoverEverything(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pt, _ := newTestTrie(2, Config{MasterChunkWords: 16})
	batch := make([]bitstr.String, 200)
	for i := range batch {
		batch[i] = randomKey(r, 200)
	}
	p := prepFor(pt, batch)
	chunks := pt.chunkEdges(p)
	seen := map[*trie.Edge]bool{}
	totalBits := 0
	for _, ch := range chunks {
		w := 0
		for _, s := range ch {
			if seen[s.edge] {
				t.Fatal("edge chunked twice")
			}
			seen[s.edge] = true
			totalBits += s.end - s.off
			w += s.words()
			if s.startVal != p.hashes[s.edge.From.Index] {
				t.Fatal("segment startVal mismatch")
			}
		}
		// Chunks respect the bound up to one oversized tail edge.
		if w > 2*pt.cfg.MasterChunkWords+4 {
			t.Fatalf("chunk of %d words (bound %d)", w, pt.cfg.MasterChunkWords)
		}
	}
	if totalBits != p.qt.Trie.EdgeBits() {
		t.Fatalf("chunks cover %d of %d bits", totalBits, p.qt.Trie.EdgeBits())
	}
}

func TestDecomposeDropsDuplicateHits(t *testing.T) {
	pt, _ := newTestTrie(2, Config{})
	p := prepFor(pt, []bitstr.String{bitstr.MustParse("00001111")})
	root := hitRec{pos: atNode(p.qt.Trie.Root()), info: t2meta(pt)}
	at := func(prefix string, val uint64) hitRec {
		s := bitstr.MustParse(prefix)
		h := hitRec{pos: findEdgePos(p.qt, s), depth: s.Len(), val: pt.h.Hash(s), info: t2meta(pt)}
		h.info.Hash = val // tells the two reports of one position apart
		return h
	}
	// The same position reported twice (as the master table and a region
	// index do for a region root), out of offset order, the root twice.
	hits := []hitRec{root, at("00001", 1), at("000", 2), root, at("00001", 3), at("000", 4)}
	pieces := pt.decompose(p, hits, false)
	if len(pieces) != 3 {
		t.Fatalf("pieces = %d, want 3", len(pieces))
	}
	// Pieces come in hit order and keep the first report of a position.
	for i, want := range []struct {
		depth int
		hash  uint64
	}{{0, root.info.Hash}, {5, 1}, {3, 2}} {
		if pc := pieces[i]; pc.hit.depth != want.depth || pc.hit.info.Hash != want.hash {
			t.Fatalf("piece %d: depth %d from report %d, want depth %d from report %d",
				i, pc.hit.depth, pc.hit.info.Hash, want.depth, want.hash)
		}
	}
	e := p.qt.Nodes[0].ParentEdge
	if stops := pt.stops.on(e); len(stops) != 2 || stops[0] != 3 || stops[1] != 5 {
		t.Fatalf("stops = %v, want [3 5]", stops)
	}
}

// TestGroupByBlockMergesSharedBlocks covers the case verification cannot
// rule out: two hits (a hash false positive among them) naming one
// block. Their keys must reach the block in one task, groups in
// first-seen block order, keys ascending.
func TestGroupByBlockMergesSharedBlocks(t *testing.T) {
	pt, _ := newTestTrie(2, Config{})
	blk := func(id uint64) pim.Addr { return pim.Addr{Module: int(id % 2), ID: id} }
	pt.pieceUsed = 0
	mk := func(id uint64) *piece {
		return pt.newPiece(hitRec{info: metaInfo{Block: blk(id)}}, qpos{})
	}
	a, b, c, d, e := mk(7), mk(4), mk(7), mk(9), mk(4)
	unused := mk(9) // a piece no key anchors at
	pcs := []*piece{a, c, b, nil, d, e, a, c}
	rels := make([]bitstr.String, len(pcs))
	for i := range rels {
		rels[i] = bitstr.MustParse("1011")
	}
	groups := pt.groupByBlock(pcs, rels)
	want := []struct {
		blk  pim.Addr
		keys []int32
	}{{blk(7), []int32{0, 1, 6, 7}}, {blk(4), []int32{2, 5}}, {blk(9), []int32{4}}}
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d: %+v", len(groups), len(want), groups)
	}
	for i, w := range want {
		g := groups[i]
		if g.blk != w.blk || !reflect.DeepEqual(g.keys, w.keys) || g.words != 3*len(w.keys) {
			t.Fatalf("group %d = {%v %v words %d}, want {%v %v words %d}", i, g.blk, g.keys, g.words, w.blk, w.keys, 3*len(w.keys))
		}
	}
	if unused.group != -1 {
		t.Fatalf("piece without keys joined group %d", unused.group)
	}
}
