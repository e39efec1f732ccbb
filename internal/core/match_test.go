package core

// White-box tests of the matching machinery: piece decomposition,
// local matching, suffix windows and chunking.

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/hvm"
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
		if r.idx == n.Index {
			return int(r.depth), true
		}
	}
	return 0, false
}

func exactOf(rep *matchReport, n *trie.Node) (exactHit, bool) {
	for _, e := range rep.exact {
		if e.idx == n.Index {
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
	pieces := pt.decompose(p, []hitRec{root})
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
	pieces := pt.decompose(p, []hitRec{root, mid})
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
	rep := matchPiece(atNode(qt.Trie.Root()), nil, block)
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
	rep := matchPiece(atNode(qt.Trie.Root()), nil, block)
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
	rep := matchPiece(atNode(qt.Trie.Root()), stops, block)
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
	rep := matchPiece(atNode(qt.Trie.Root()), stops, below("00011101"))
	if len(rep.reach) != 1 || rep.reach[0].idx != qt.Trie.Root().Index {
		t.Fatalf("root piece claimed past its stop: %+v", rep)
	}
	// From the first mid-edge hit: walks bits (2,4] and halts again.
	rep = matchPiece(onEdge(e, 2), stops, below("011101"))
	if len(rep.reach) != 0 || rep.words != 0 {
		t.Fatalf("middle piece claimed a node: %+v", rep)
	}
	// From the second: consumes the edge and records its To node, and —
	// that node being a hit itself — does not descend to the leaf.
	rep = matchPiece(onEdge(e, 4), stops, below("1101"))
	if d, ok := reachOf(rep, mid); !ok || d != 6 {
		t.Fatalf("last piece: reach(000111) = %d, %v; want 6", d, ok)
	}
	if _, ok := reachOf(rep, leaf); ok {
		t.Fatalf("last piece descended past the edge-end hit: %+v", rep)
	}
	// The piece of the edge-end hit owns everything below.
	rep = matchPiece(atNode(mid), stops, below("01"))
	if d, _ := reachOf(rep, leaf); d != 8 {
		t.Fatalf("edge-end piece: reach(leaf) = %d, want 8", d)
	}
	if ex, ok := exactOf(rep, leaf); !ok || ex.value != 9 {
		t.Fatalf("edge-end piece: exact(leaf) = %+v, %v", ex, ok)
	}
}

// TestSuffixWindow: suffixWindowEqual matches a window — the last
// min(depth, w) bits above a position — across the edges of the root
// path, and rejects a window with one bit flipped or of the wrong length.
func TestSuffixWindow(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	long := bitstr.Empty
	for long.Len() < 150 {
		long = long.AppendBit(byte(r.Intn(2)))
	}
	tr := trie.New()
	tr.Insert(long, 1)
	tr.Insert(long.Prefix(5), 2)  // a node at depth 5
	tr.Insert(long.Prefix(40), 3) // and at depth 40, so a window spans three edges
	var e *trie.Edge
	tr.WalkPreorder(func(n *trie.Node) bool {
		if n.Depth == 40 && n.Child[long.BitAt(40)] != nil {
			e = n.Child[long.BitAt(40)]
		}
		return true
	})
	if e == nil {
		t.Fatal("test setup: edge not found")
	}
	for _, off := range []int{1, 20, 24, 25, 90, e.Label.Len()} {
		depth := e.From.Depth + off
		win := long.Prefix(depth)
		win = win.Suffix(max(0, depth-bitstr.WordBits))
		if !suffixWindowEqual(e, off, win) {
			t.Fatalf("window at depth %d not matched", depth)
		}
		flipped := win.Prefix(win.Len() - 1).AppendBit(1 - win.BitAt(win.Len()-1))
		if suffixWindowEqual(e, off, flipped) || suffixWindowEqual(e, off, win.Suffix(1)) {
			t.Fatalf("window at depth %d matched a wrong window", depth)
		}
	}
}

// TestChunkEdgesClampToMasterBound: the master round's chunks cover
// exactly the query positions no deeper than the master table's depth
// bound, each once and from its edge's start, in bounded chunks; an index
// whose master holds only the root ships no chunk at all, and its master
// round still runs as one (empty) round.
func TestChunkEdgesClampToMasterBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pt, _ := newTestTrie(2, Config{MasterChunkWords: 16})
	batch := make([]bitstr.String, 200)
	for i := range batch {
		batch[i] = randomKey(r, 200)
	}
	p := prepFor(pt, batch)
	for _, bound := range []int{0, 1, 5, 14, 64, 130, 1000} {
		// The positions at depth ≤ bound, edge by edge.
		want := map[*trie.Edge]int{}
		wantBits := 0
		for _, nd := range p.qt.PreNodes {
			for b := 0; b < 2; b++ {
				if e := nd.Child[b]; e != nil && nd.Depth < bound {
					want[e] = min(e.Label.Len(), bound-nd.Depth)
					wantBits += want[e]
				}
			}
		}
		seen := map[*trie.Edge]bool{}
		bits := 0
		chunks := pt.chunkEdges(p, bound)
		for _, ch := range chunks {
			if len(ch) == 0 {
				t.Fatalf("bound %d: empty chunk", bound)
			}
			w := 0
			for _, s := range ch {
				if seen[s.edge] {
					t.Fatalf("bound %d: edge chunked twice", bound)
				}
				seen[s.edge] = true
				if s.off != 0 || s.end != want[s.edge] {
					t.Fatalf("bound %d: edge from depth %d shipped as (%d, %d], want (0, %d]", bound, s.edge.From.Depth, s.off, s.end, want[s.edge])
				}
				bits += s.end
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
		if len(seen) != len(want) || bits != wantBits {
			t.Fatalf("bound %d: chunks cover %d positions on %d edges, want %d on %d", bound, bits, len(seen), wantBits, len(want))
		}
		if bound >= 1000 && bits != p.qt.Trie.EdgeBits() {
			t.Fatalf("a bound past every key covers %d of %d bits", bits, p.qt.Trie.EdgeBits())
		}
	}
	// The fresh index holds only the root region: its master bound is 0.
	if pt.masterBound() != 0 || len(pt.chunkEdges(p, pt.masterBound())) != 0 {
		t.Fatalf("root-only index: master bound %d ships %d chunks, want 0 and 0", pt.masterBound(), len(pt.chunkEdges(p, pt.masterBound())))
	}
	rec := &phaseRecorder{}
	pt.sys.SetRecorder(rec)
	pt.LCP(batch)
	pt.sys.SetRecorder(nil)
	if got := rec.rounds["master-match"]; len(got) != 1 || got[0].Tasks != 0 {
		t.Fatalf("root-only index: master round ran as %+v, want one round of no tasks", got)
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
	pieces := pt.decompose(p, hits)
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

// probeEveryBit is the straight-line HashMatching loop of Algorithm 3:
// every bit of every segment hashed and probed, no depth bound, no word
// windows. It is the reference the bounded probeSegments is held to.
func probeEveryBit(h *hashing.Hasher, segs []segment, lookup func(uint64) (metaInfo, bool)) []rawHit {
	var hits []rawHit
	for _, s := range segs {
		v := s.startVal
		for i := s.off; i < s.end; i++ {
			v = h.ExtendBit(v, s.edge.Label.BitAt(i))
			if info, ok := lookup(h.Out(v)); ok {
				hits = append(hits, rawHit{edge: s.edge, off: i + 1, val: v, info: info})
			}
		}
	}
	return hits
}

func sameHits(a, b []rawHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.edge != y.edge || x.off != y.off || x.val != y.val ||
			x.info.Hash != y.info.Hash || x.info.Len != y.info.Len || !bitstr.Equal(x.info.SLast, y.info.SLast) ||
			x.info.Block != y.info.Block || x.info.Region != y.info.Region {
			return false
		}
	}
	return true
}

// probeFixture is a query trie cut into segments plus the strings of
// random positions on it (candidate block roots).
type probeFixture struct {
	h     *hashing.Hasher
	keys  []bitstr.String
	segs  []segment
	roots []bitstr.String // ε first
	deep  int             // longest key
	// hashes holds the query-trie node hashes, by preorder index.
	hashes []hashing.Value
}

// seg is the segment of positions (off, end] of edge e.
func (fx *probeFixture) seg(e *trie.Edge, off, end int) segment {
	return segment{edge: e, off: off, end: end, startVal: fx.h.ExtendRange(fx.hashes[e.From.Index], e.Label, 0, off)}
}

func newProbeFixture(r *rand.Rand, width uint, maxBits int) *probeFixture {
	fx := &probeFixture{h: hashing.New(uint64(r.Int63()), width), roots: []bitstr.String{bitstr.Empty}}
	batch := skewedKeys(r, 30, 70, maxBits-60)
	for i := 0; i < 30; i++ {
		batch = append(batch, randomKey(r, maxBits))
	}
	fx.keys = batch
	for _, k := range batch {
		fx.deep = max(fx.deep, k.Len())
		for j := 0; j < 3; j++ {
			fx.roots = append(fx.roots, k.Prefix(r.Intn(k.Len()+1)))
		}
	}
	qt := querytrie.Build(batch)
	fx.hashes = qt.NodeHashes(fx.h, nil)
	for _, nd := range qt.PreNodes {
		for b := 0; b < 2; b++ {
			e := nd.Child[b]
			if e == nil {
				continue
			}
			// Mostly whole edges (the master round's shape), some cut at
			// random offsets (the region round's, below a hit).
			off, end := 0, e.Label.Len()
			if r.Intn(3) == 0 {
				off = r.Intn(end + 1)
				end = off + r.Intn(end-off+1)
			}
			fx.segs = append(fx.segs, fx.seg(e, off, end))
		}
	}
	return fx
}

// rootsWithin returns the fixture's roots no longer than bound, plus —
// when some key reaches that deep — one of exactly that length, so the
// table built from them has depth bound `bound`.
func (fx *probeFixture) rootsWithin(bound int) []bitstr.String {
	var out []bitstr.String
	for _, s := range fx.roots {
		if s.Len() <= bound {
			out = append(out, s)
		}
	}
	for _, k := range fx.keys {
		if k.Len() >= bound {
			return append(out, k.Prefix(bound))
		}
	}
	return out
}

// probeBounds lists the depth bounds worth trying on a fixture: 0, the
// 64-bit window edges, inside a window, at a segment's own start (nothing
// to probe), in its middle, at its end, and past every key.
func (fx *probeFixture) probeBounds(r *rand.Rand) []int {
	bounds := []int{0, 1, 63, 64, 65, 100, 127, 128, 129, 192, fx.deep, fx.deep + 70}
	for i := 0; i < 6; i++ {
		s := fx.segs[r.Intn(len(fx.segs))]
		d := s.edge.From.Depth
		bounds = append(bounds, d+s.off, d+s.off+(s.end-s.off)/2, d+s.end)
	}
	return bounds
}

// TestProbeSegmentsBoundedMatchesEveryBit: over randomized tables and
// segments, the bounded word-stepped walk reports exactly the hits of the
// unbounded per-bit reference, in the same order, minus hits deeper than
// the bound — which exist only under a narrow hash and are all false
// positives (the entry's Len is not the probed depth, so checkHit would
// drop them). PIM work is charged for the clamped walk.
func TestProbeSegmentsBoundedMatchesEveryBit(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	var slab replyArena
	for _, width := range []uint{0, 0, 12, 7} {
		fx := newProbeFixture(r, width, 260)
		falseAbove, falseBelow, trueHits := 0, 0, 0
		for _, want := range fx.probeBounds(r) {
			tbl := newMetaTable(0)
			for i, s := range fx.rootsWithin(want) {
				tbl.Put(fx.h.HashOut(s), masterEntry{Len: s.Len(), SLast: slastOf(s), Block: pim.Addr{Module: 1, ID: uint64(i)}})
			}
			bound := tbl.MaxLen()
			if want <= fx.deep && bound != want {
				t.Fatalf("width %d: table built for bound %d reports %d", width, want, bound)
			}
			lookup := func(h uint64, _ int) (metaInfo, bool) {
				e, ok := tbl.Get(h)
				return metaInfo{Hash: h, Len: e.Len, SLast: e.SLast, Block: e.Block, Region: e.Region}, ok
			}
			var ref []rawHit
			for _, rh := range probeEveryBit(fx.h, fx.segs, func(h uint64) (metaInfo, bool) { return lookup(h, 0) }) {
				depth := rh.edge.From.Depth + rh.off
				switch {
				case depth <= bound:
					ref = append(ref, rh)
					if rh.info.Len == depth {
						trueHits++
					} else {
						falseAbove++
					}
				case rh.info.Len == depth:
					t.Fatalf("width %d bound %d: reference hit at depth %d on an entry of that Len — the bound is unsound", width, bound, depth)
				default:
					falseBelow++
				}
			}
			work, wantWork := 0, 0
			for _, s := range fx.segs {
				if end := min(s.end, bound-s.edge.From.Depth); end > s.off {
					wantWork += (end-s.off)/8 + (end - s.off) + 1
				} else {
					wantWork++
				}
			}
			// The reply is the same from the heap (an arena that holds
			// nothing yet), from an arena too small for it (the first
			// rounds) and from one that has grown to the round's demand.
			for i, touch := range []func(uint64) uint64{tbl.Touch, nil, tbl.Touch} {
				arena := &slab
				if i == 1 {
					arena = new(replyArena)
				}
				work = 0
				got := probeSegments(fx.h, fx.segs, bound, arena, lookup, touch, nil, func(w int) { work += w })
				rehashHits(fx.h, fx.segs, got)
				if !sameHits(got, ref) {
					t.Fatalf("width %d bound %d: %d hits, reference has %d within the bound (or they differ in content/order)",
						width, bound, len(got), len(ref))
				}
				if work != wantWork {
					t.Fatalf("width %d bound %d: charged %d work, the clamped walk costs %d", width, bound, work, wantWork)
				}
				slab.reset()
			}
		}
		if trueHits == 0 {
			t.Fatalf("width %d: fixture produced no true hits", width)
		}
		if width != 0 && width <= 12 && (falseAbove == 0 || falseBelow == 0) {
			t.Fatalf("width %d: false positives above/below the bound = %d/%d; want both kinds", width, falseAbove, falseBelow)
		}
		if width == 0 && falseAbove+falseBelow != 0 {
			t.Fatalf("full-width hash produced %d false positives", falseAbove+falseBelow)
		}
	}
}

// TestReplyArena: chunks handed out between two resets are disjoint,
// also when tasks extend concurrently; a reply keeps its contents across
// moves; a round that asks for more than the arena holds is served from
// the heap and the arena then grows to the round's demand, up to its
// bound; reset clears what was handed out and nothing else.
func TestReplyArena(t *testing.T) {
	var a replyArena
	edges := make([]trie.Edge, 8)
	fill := func(task, n int) []rawHit {
		var hits []rawHit
		for i := 0; i < n; i++ {
			if len(hits) == cap(hits) {
				hits = a.extend(hits)
			}
			hits = append(hits, rawHit{edge: &edges[task], off: i + 1})
		}
		return hits
	}
	inArena := func(hits []rawHit) bool {
		for i := range a.buf {
			if &a.buf[i] == &hits[0] {
				return true
			}
		}
		return false
	}
	sizes := []int{0, 1, 4, 5, 33, 2, 100, 7}
	for round := 0; round < 3; round++ {
		replies := make([][]rawHit, len(sizes))
		var wg sync.WaitGroup
		for task, n := range sizes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[task] = fill(task, n)
			}()
		}
		wg.Wait()
		for task, hits := range replies {
			if len(hits) != sizes[task] || (sizes[task] == 0) != (hits == nil) {
				t.Fatalf("round %d task %d: reply of %d hits, want %d (nil when empty)", round, task, len(hits), sizes[task])
			}
			for i, rh := range hits {
				if rh.edge != &edges[task] || rh.off != i+1 {
					t.Fatalf("round %d task %d hit %d: %+v — another task wrote here, or a move lost it", round, task, i, rh)
				}
			}
			if round > 0 && len(hits) > 0 && !inArena(hits) {
				t.Fatalf("round %d task %d: reply came from the heap although the arena had grown to the round's demand", round, task)
			}
		}
		demand := int(a.next.Load())
		held := len(a.buf)
		a.reset()
		if round == 0 && (held != 0 || len(a.buf) != demand) {
			t.Fatalf("first round: arena held %d slots and grew to %d, want 0 and the demand %d", held, len(a.buf), demand)
		}
		if round > 0 && len(a.buf) != held {
			t.Fatalf("round %d: arena resized %d → %d on an equal round", round, held, len(a.buf))
		}
		for i, rh := range a.buf {
			if rh.edge != nil || rh.off != 0 {
				t.Fatalf("round %d: slot %d survives the reset and pins its query edge", round, i)
			}
		}
	}
	// reset clears the slots handed out, not the arena.
	a.buf[len(a.buf)-1].off = 7
	fill(0, 1)
	a.reset()
	if a.buf[len(a.buf)-1].off != 7 {
		t.Fatal("reset after a one-chunk round cleared the whole arena")
	}
	// The arena is bounded: a round that asks for more than replyArenaMax
	// slots gets the excess from the heap, whole, and the arena stops at
	// the bound however often that happens.
	for round := 0; round < 2; round++ {
		big := fill(1, 3*replyArenaMax)
		for i, rh := range big {
			if rh.edge != &edges[1] || rh.off != i+1 {
				t.Fatalf("oversized reply lost hit %d: %+v", i, rh)
			}
		}
		a.reset()
		if len(a.buf) != replyArenaMax {
			t.Fatalf("arena holds %d slots after an oversized round, want the bound %d", len(a.buf), replyArenaMax)
		}
	}
}

// regionOf builds a region holding ε and the given roots, linked by the
// prefix relation as the meta-tree is, with their pivot augmentation.
func regionOf(t testing.TB, h *hashing.Hasher, roots []bitstr.String) *hvm.Region {
	t.Helper()
	pt := &PIMTrie{h: h}
	uniq := map[string]bool{"": true}
	sorted := []bitstr.String{bitstr.Empty}
	for _, s := range roots {
		if !uniq[s.String()] {
			uniq[s.String()] = true
			sorted = append(sorted, s)
		}
	}
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Len() < sorted[b].Len() })
	var reg *hvm.Region
	var nodes []*hvm.MetaNode
	for i, s := range sorted {
		val := h.Hash(s)
		hashPre, srem := pt.pivotAug(val, slastOf(s))
		n := &hvm.MetaNode{Hash: h.Out(val), Len: s.Len(), SLast: slastOf(s), Block: pim.Addr{Module: 1, ID: uint64(i)}, HashPre: hashPre, SRem: srem}
		if i == 0 {
			reg = hvm.NewRegion(n)
			nodes = append(nodes, n)
			continue
		}
		parent := 0
		for j := 1; j < i; j++ {
			if p := sorted[j]; nodes[j] != nil && p.Len() < s.Len() && bitstr.Equal(s.Prefix(p.Len()), p) && p.Len() > sorted[parent].Len() {
				parent = j
			}
		}
		if err := reg.Insert(nodes[parent], n); err != nil {
			n = nil // a narrow hash collided two roots; the index keeps the first
		}
		nodes = append(nodes, n)
	}
	return reg
}

// verified keeps the hits checkHit accepts.
func verified(raw []rawHit) []rawHit {
	var out []rawHit
	for _, rh := range raw {
		if _, ok := (&PIMTrie{}).checkHit(rh); ok {
			out = append(out, rh)
		}
	}
	return out
}

// checkRegionProbe runs the region program over segs against a region
// holding roots, completes its replies as the host does, and fails
// unless the hits that verify are those of the every-bit reference over
// ref, in the same order. ref is segs unless the test shipped segs
// clamped. It returns how many segments took the class path and how many
// hits verified.
func checkRegionProbe(t testing.TB, h *hashing.Hasher, segs []segment, roots []bitstr.String) (classSegs, hits int) {
	t.Helper()
	return checkRegionShare(t, h, segs, segs, regionOf(t, h, roots))
}

func checkRegionShare(t testing.TB, h *hashing.Hasher, segs, ref []segment, reg *hvm.Region) (classSegs, hits int) {
	t.Helper()
	regAddr := pim.Addr{Module: 2, ID: 9}
	pt := &PIMTrie{h: h}
	raw := pt.probeRegion(segs, reg, func(int) {})
	pt.resolveRegion(segs, raw, regAddr)
	got := verified(raw)
	pt.replies.reset()
	want := verified(probeEveryBit(h, ref, func(x uint64) (metaInfo, bool) {
		n := reg.Lookup(x)
		if n == nil {
			return metaInfo{}, false
		}
		return metaInfo{Hash: x, Len: n.Len, SLast: n.SLast, Block: n.Block, Region: regAddr}, true
	}))
	if !sameHits(got, want) {
		t.Fatalf("bound %d: the region program verifies %d hits, the every-bit reference %d (or they differ in content/order)",
			reg.MaxLen(), len(got), len(want))
	}
	for _, s := range segs {
		if _, _, ok := classWindow(s, reg.MaxLen()); ok {
			classSegs++
		}
	}
	return classSegs, len(got)
}

// deepRoots adds to the fixture's roots more prefixes of its keys, so
// that every class window holds block roots on the query paths.
func (fx *probeFixture) deepRoots(r *rand.Rand) {
	for _, k := range fx.keys {
		for j := 0; j < 8; j++ {
			fx.roots = append(fx.roots, k.Prefix(r.Intn(k.Len()+1)))
		}
	}
}

// wordCases cuts segments out of the fixture's longest edges at the word
// boundary cases of the class path: starts on and off a word boundary
// (d0 mod w = 0 or not), windows ending at b1, b1+w−1 and b1+w where b1
// is the end of the start word, and each run to the end of its edge. The
// bounds are the depth bounds to probe the run-to-end segments under:
// b1+w for each.
func (fx *probeFixture) wordCases(r *rand.Rand) (segs, toEnd []segment, bounds []int) {
	const w = bitstr.WordBits
	var edges []*trie.Edge
	for _, s := range fx.segs {
		if s.edge.Label.Len() >= 3*w {
			edges = append(edges, s.edge)
		}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges[:min(len(edges), 12)] {
		from := e.From.Depth
		aligned := (w - from%w) % w
		for _, off := range []int{aligned, aligned + 1 + r.Intn(w-1)} {
			d0 := from + off
			b1 := d0 - d0%w + w
			at := func(end int) segment { return fx.seg(e, off, end) }
			for _, dEnd := range []int{b1, b1 + w - 1, b1 + w} {
				if dEnd-from <= e.Label.Len() {
					segs = append(segs, at(dEnd-from))
				}
			}
			if b1+w-from <= e.Label.Len() {
				toEnd = append(toEnd, at(e.Label.Len()))
				bounds = append(bounds, b1+w)
			}
		}
	}
	return segs, toEnd, bounds
}

// TestRegionProbeMatchesEveryBit: over randomized deep fixtures, under a
// full-width and a 12-bit hash, the hits of the one region program that
// verify are exactly those of probing every bit — per-bit windows, class
// windows, and the word boundary between them alike — also when the
// segments are shipped cut at the region's depth bound, as the region
// round ships them, and the reference walks them whole.
func TestRegionProbeMatchesEveryBit(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for _, width := range []uint{61, 12} {
		fx := newProbeFixture(r, width, 700)
		fx.deepRoots(r)
		classSegs, hits, clampedClassSegs := 0, 0, 0
		add := func(c, h int) { classSegs, hits = classSegs+c, hits+h }
		for _, bound := range fx.probeBounds(r) {
			add(checkRegionProbe(t, fx.h, fx.segs, fx.rootsWithin(bound)))
			reg := regionOf(t, fx.h, fx.rootsWithin(bound))
			clamped, _ := clampSegs(slices.Clone(fx.segs), reg.MaxLen())
			c, h := checkRegionShare(t, fx.h, clamped, fx.segs, reg)
			add(c, h)
			clampedClassSegs += c
		}
		segs, toEnd, bounds := fx.wordCases(r)
		if len(bounds) == 0 {
			t.Fatalf("width %d: fixture has no edge long enough for the word cases", width)
		}
		add(checkRegionProbe(t, fx.h, segs, fx.roots))
		for i, s := range toEnd {
			add(checkRegionProbe(t, fx.h, []segment{s}, fx.rootsWithin(bounds[i])))
		}
		if classSegs == 0 || hits == 0 || clampedClassSegs == 0 {
			t.Fatalf("width %d: %d segments took the class path (%d of them clamped), %d hits verified; the test is vacuous",
				width, classSegs, clampedClassSegs, hits)
		}
		t.Logf("width %d: %d segments took the class path, %d hits verified", width, classSegs, hits)
	}
}

// FuzzRegionProbe holds the region program to the every-bit reference
// on one segment of a fixed deep fixture, the fuzzer choosing its edge,
// its start offset, its length and the region's depth bound.
func FuzzRegionProbe(f *testing.F) {
	r := rand.New(rand.NewSource(79))
	fx := newProbeFixture(r, 0, 700)
	fx.deepRoots(r)
	var edges []*trie.Edge
	for _, s := range fx.segs {
		edges = append(edges, s.edge)
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Label.Len() > edges[j].Label.Len() })
	for _, c := range [][4]uint16{{0, 0, 700, 700}, {0, 64, 128, 256}, {1, 3, 200, 190}, {2, 127, 64, 300}} {
		f.Add(uint8(c[0]), c[1], c[2], c[3])
	}
	f.Fuzz(func(t *testing.T, edge uint8, off, length, bound uint16) {
		e := edges[int(edge)%len(edges)]
		o := int(off) % (e.Label.Len() + 1)
		end := o + int(length)%(e.Label.Len()-o+1)
		checkRegionProbe(t, fx.h, []segment{fx.seg(e, o, end)}, fx.rootsWithin(int(bound)%(fx.deep+70)))
	})
}

// FuzzClampedShares holds the region round's shipped form to the
// every-bit reference: one segment of a fixed deep fixture, cut at the
// depth bound of a region built for the fuzzer's bound (clampSegs, as the
// host cuts a piece before sending it), must verify the hits that
// walking the whole segment verifies, under a full-width and a 12-bit
// hash. The fuzzer chooses the hash width, the edge, the start offset,
// the length and the bound; the seeds include class-path windows.
func FuzzClampedShares(f *testing.F) {
	r := rand.New(rand.NewSource(97))
	var fxs []*probeFixture
	var edges [][]*trie.Edge
	for _, width := range []uint{61, 12} {
		fx := newProbeFixture(r, width, 700)
		fx.deepRoots(r)
		var es []*trie.Edge
		for _, s := range fx.segs {
			es = append(es, s.edge)
		}
		sort.SliceStable(es, func(i, j int) bool { return es[i].Label.Len() > es[j].Label.Len() })
		fxs, edges = append(fxs, fx), append(edges, es)
	}
	for _, c := range [][5]uint16{{0, 0, 0, 700, 700}, {1, 0, 0, 700, 700}, {0, 0, 64, 128, 256}, {1, 1, 3, 200, 190}, {0, 2, 127, 64, 300}, {1, 0, 10, 600, 20}} {
		f.Add(uint8(c[0]), uint8(c[1]), c[2], c[3], c[4])
	}
	f.Fuzz(func(t *testing.T, width, edge uint8, off, length, bound uint16) {
		fx, es := fxs[int(width)%len(fxs)], edges[int(width)%len(fxs)]
		e := es[int(edge)%len(es)]
		o := int(off) % (e.Label.Len() + 1)
		whole := fx.seg(e, o, o+int(length)%(e.Label.Len()-o+1))
		reg := regionOf(t, fx.h, fx.rootsWithin(int(bound)%(fx.deep+70)))
		clamped, _ := clampSegs([]segment{whole}, reg.MaxLen())
		checkRegionShare(t, fx.h, clamped, []segment{whole}, reg)
	})
}

// TestRegionProbeChargesRebuild: a region mutated since its class index
// was built charges its module exactly r.Len() more work for the probe
// that rebuilds the index than the same probe on the now clean region.
func TestRegionProbeChargesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	fx := newProbeFixture(r, 0, 700)
	fx.deepRoots(r)
	reg := regionOf(t, fx.h, fx.roots)
	pt := &PIMTrie{h: fx.h}
	probe := func() int {
		work := 0
		pt.probeRegion(fx.segs, reg, func(w int) { work += w })
		pt.replies.reset()
		return work
	}
	for round := 0; round < 2; round++ {
		stale := probe()
		clean := probe()
		if stale-clean != reg.Len() {
			t.Fatalf("round %d: a stale index costs %d more work than a clean one, want the region's %d members", round, stale-clean, reg.Len())
		}
		// A current index is only read, so parallel host workers can probe
		// one pulled region through it (under -race, this checks that).
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work := 0
				(&PIMTrie{h: fx.h}).probeRegion(fx.segs, reg, func(w int) { work += w })
				if work != clean {
					t.Errorf("round %d: a clean index costs %d, then %d on another goroutine", round, clean, work)
				}
			}()
		}
		wg.Wait()
		// A new member under the root marks the index stale again.
		leaf := &hvm.MetaNode{Hash: 1<<62 + uint64(round), Len: 1, SLast: bitstr.MustParse("1"), HashPre: fx.h.OutFull(hashing.EmptyValue()), SRem: bitstr.MustParse("1")}
		if err := reg.Insert(reg.Root, leaf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPivotClassesKeyedFullWidth: pivot classes are keyed by the
// full-width hash whatever the test width. Two word-long prefixes whose
// 12-bit outputs collide would otherwise share a class, and a member of
// the other prefix whose remainder runs further along the query would
// win the class lookup and hide the query's own block root.
func TestPivotClassesKeyedFullWidth(t *testing.T) {
	h := hashing.New(5, 12)
	r := rand.New(rand.NewSource(89))
	word := func() bitstr.String {
		s := bitstr.Empty
		for s.Len() < bitstr.WordBits {
			s = s.AppendBit(byte(r.Intn(2)))
		}
		return s
	}
	// Two distinct words with one 12-bit output: the birthday bound finds
	// them within a few hundred draws.
	seen := map[uint64]bitstr.String{}
	var p, q bitstr.String
	for q.Len() == 0 {
		s := word()
		if prev, ok := seen[h.HashOut(s)]; ok && !bitstr.Equal(prev, s) {
			p, q = prev, s
		}
		seen[h.HashOut(s)] = s
	}
	query := p.Concat(bitstr.MustParse("0110")).Concat(word()).Concat(word())
	own := query.Prefix(bitstr.WordBits + 1)     // remainder "0"
	other := q.Concat(bitstr.MustParse("011"))   // remainder "011"
	deep := query.Prefix(2*bitstr.WordBits + 60) // lifts the bound past the class window
	e := querytrie.Build([]bitstr.String{query}).Trie.Root().Child[query.BitAt(0)]
	seg := segment{edge: e, off: 0, end: query.Len(), startVal: hashing.EmptyValue()}
	if reg := regionOf(t, h, []bitstr.String{own, other, deep}); reg.Len() != 4 {
		t.Fatalf("test setup: a 12-bit collision between block roots left %d members", reg.Len())
	}
	if classSegs, hits := checkRegionProbe(t, h, []segment{seg}, []bitstr.String{own, other, deep}); classSegs != 1 || hits != 2 {
		t.Fatalf("%d class-path segments verified %d hits, want 1 segment and the query's 2 roots", classSegs, hits)
	}
}
