package core

// The distributed trie-matching protocol (Algorithms 2–5 adapted to the
// flattened region scheme; see the package comment). One call to
// (*PIMTrie).match runs, for a prepared query trie:
//
//	phase B — master round: at most P equal query-trie chunks on
//	          distinct modules, every bit position down to the master
//	          table's depth bound probed against the replicated master
//	          table;
//	phase C — region round: pieces below master hits probed against
//	          their region's index down to the region's depth bound,
//	          bottom-up, for the deepest hit a key can anchor at — one
//	          pivot class per word where a window runs words deep
//	          (§4.4.2) — push-pull by piece size;
//	phase D — block round: the pieces below the combined hits that hold
//	          a batch key's node matched bit-by-bit against their
//	          blocks, push-pull.
//
// Only keyed pieces are shipped, because every answer is read at a key
// node, and a key's reach and exact entry come only from its anchor
// piece's walk: the piece of the deepest hit on the key's root path. The
// region round reports only the hits that can be such an anchor
// (probeRegion), so every key keeps the anchor the full hit set gives it.
// A walk halts at the next reported hit below it or at a mirror of its
// block. A hit it runs past unreported is a block root on the query path,
// so the block holds a mirror there. Hits are verified, so a walk cannot
// diverge from the query above the hits; it can only stop at a mirror.
// There it diverge-marks at the mirror's depth, no deeper than the anchor
// of any key below, whose own walk reports at least that depth; fold keeps
// the max. A walk that halts exactly on a hit node records a mirror there,
// and fold prefers the anchor's block root.
//
// Every hit is verified host-side by length and S_last before being
// trusted (§4.4.3's differentiated verification: interior certification
// comes from hashes + S_last; leaf-ward content from phase D's
// bit-by-bit walk). A verification failure aborts the pass; the caller
// re-hashes globally and redoes the batch.
//
// Depth bounds. HashMatching looks for block roots, and a probe at depth
// d can only verify against a root of length d, so each probe target
// carries the largest root length it holds (metaTable.MaxLen,
// hvm.Region.MaxLen — exact at all times) and nothing below it is
// shipped: the host holds the master bound (its own copy of the table)
// and every live region's bound (PIMTrie.regionBound), and cuts each
// segment at its target's bound before sending it. A chunk or piece with
// nothing left gets no task, but the round is still run (and counted).
//
// Replies carry only what the host cannot rebuild. A master hit is its
// query position (1 word): the host rehashes the position from its
// segment's start value and reads the entry from its own master table. A
// region hit is its position, S_last and block address (3 words): the
// module reports only a member that verifies there, so the host knows the
// length, rehashes the position for the hash, and knows the region from
// the piece it sent. Either way each task adds one word, and every hit is
// then verified as above.

import (
	"slices"
	"sync/atomic"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/hvm"
	"github.com/pimlab/pimtrie/internal/parallel"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/querytrie"
	"github.com/pimlab/pimtrie/internal/trie"
)

// hitRec is one verified match position: a query-trie position whose
// represented string equals a data block root's string.
type hitRec struct {
	pos   qpos
	depth int
	val   hashing.Value // full-precision hash of the position's string
	info  metaInfo
}

// segment is a run of query-trie edge bits shipped for probing:
// positions (off, end] of edge's label, with the hash value at off. cut
// marks a segment that ends at a hit of the partition it belongs to
// (decompose), which the next piece starts from.
type segment struct {
	edge     *trie.Edge
	off, end int
	startVal hashing.Value
	cut      bool
}

func (s segment) words() int {
	return (s.end-s.off)/bitstr.WordBits + 2
}

// rawHit is a module-side hit before host verification. A module fills
// in the position and, on a region, info's SLast and Block; the host
// completes val and the rest of info (resolveMaster, resolveRegion).
type rawHit struct {
	edge *trie.Edge
	off  int // 1..len; len means the To node
	val  hashing.Value
	info metaInfo
}

// probeSink defeats dead-load elimination for the grouped probe loop's
// Touch sweep; the guarded store is never taken in practice, so probes
// running concurrently on module executors and host workers do not
// race on it.
var probeSink uint64

const sinkSentinel = 0x9e3779b97f4a7c15

// replyArena is the slab a round's probe tasks write their replies
// into, kept on the PIMTrie from batch to batch so that the replies of a
// small batch — a served epoch, a one-key call — are not garbage the
// moment match has read them. Tasks run concurrently on module executors
// and host workers, so a chunk is reserved with one atomic add; a reply
// that outgrows its chunk reserves one twice the size and moves over,
// leaving the old chunk unused until the reset. Once match has copied a
// round's replies out in task order it resets the arena: the slots
// handed out are cleared (they would pin the query trie; clearing them
// costs O(this round), not O(the arena)), and if the round asked for
// more slots than there were, the arena grows towards what it asked for.
//
// The arena is bounded: it never holds more than replyArenaMax slots,
// and whatever a round asks for beyond what is there comes from the
// heap. So it cannot ratchet up to the largest batch the index has ever
// served; a 4096-key batch, whose replies are a small share of what it
// allocates, measured no faster with a slab of its own size (2.4 MB). A
// sync.Pool of reply slices is bounded by nothing: it holds one slice
// per task, each grown to the largest reply any task ever made.
type replyArena struct {
	buf  []rawHit
	next atomic.Int64 // slots asked for since the reset, possibly past len(buf)
}

const (
	// replyChunk is a reply's first reservation; an empty reply makes none.
	replyChunk = 4
	// replyArenaMax bounds the arena (448 KB of 112-byte hits): the
	// demand of an epoch of several hundred keys.
	replyArenaMax = 4096
)

// extend moves hits, which is full, to a chunk with room for as many
// again; an exhausted arena serves the chunk from the heap.
func (a *replyArena) extend(hits []rawHit) []rawHit {
	n := max(replyChunk, 2*cap(hits))
	if end := int(a.next.Add(int64(n))); end <= len(a.buf) {
		return append(a.buf[end-n:end-n:end], hits...)
	}
	return append(make([]rawHit, 0, n), hits...)
}

// reset takes back every chunk handed out since the last reset; the
// caller holds no reply any more.
func (a *replyArena) reset() {
	want := int(a.next.Swap(0))
	clear(a.buf[:min(want, len(a.buf))])
	if want = min(want, replyArenaMax); want > len(a.buf) {
		a.buf = make([]rawHit, want)
	}
}

// probeSegments is the master program: it extends hash values
// bit-by-bit along each segment and probes every position no deeper than
// bound — the largest Len the lookup target holds — reporting all hits. A
// hit must verify against an entry whose Len is the probed depth, so
// positions below bound cannot hit and are neither hashed nor probed:
// each segment is clamped to end' = min(end, bound − From.Depth), and a
// segment that starts at or below bound costs one compare. The host ships
// segments already cut this way (chunkEdges), so in a match round the
// clamp only guards. Within the clamp every position is probed, so the
// extension stays per-bit; the label bits are pulled one packed word at a
// time instead of through per-bit BitAt calls. lookup gets each probe's
// hash and depth, and reports the reply a hit carries.
//
// The probes of one ≤w-bit window run in three grouped passes so their
// cache misses overlap instead of serializing (memory-level
// parallelism): first the serial hash extension — pure ALU work — fills
// stack arrays with the window's probe keys; then, when the lookup
// target supports it, a touch sweep issues the home-slot load of every
// key back-to-back (all independent, so the memory system runs them
// concurrently); finally the probe pass resolves each key in position
// order. Hits and their order are those of the straight-line loop over
// every bit of every segment (the reference in match_test.go) as long as
// bound is sound, which Validate checks — less only the hash false
// positives that loop raises below bound under a narrow test hash, which
// checkHit drops anyway. Hits carry no hash value (the host rehashes
// them, rehashHits). Work is charged for what runs: per clamped segment
// one unit per probe plus one per 8 bits hashed (the byte-table hashing
// cost of the unoptimized Algorithm 3) plus one, and one unit for a
// skipped segment.
//
// touch may be nil when the lookup target has no useful early-load form.
// The window scratch lives on the stack and the reply in chunks of arena,
// because probeSegments runs concurrently on module executors; the reply
// is nil when nothing hit and is the caller's until it resets the arena.
func probeSegments(h *hashing.Hasher, segs []segment, bound int, arena *replyArena, lookup func(h uint64, depth int) (metaInfo, bool), touch func(uint64) uint64, work func(int)) []rawHit {
	var hits []rawHit
	var outs [bitstr.WordBits]uint64
	sink := uint64(0)
	for _, s := range segs {
		end := min(s.end, bound-s.edge.From.Depth)
		if end <= s.off {
			work(1)
			continue
		}
		v := s.startVal
		l := s.edge.Label
		for i := s.off; i < end; {
			to := (i | (bitstr.WordBits - 1)) + 1
			if to > end {
				to = end
			}
			w := l.RangeWord(i, to)
			k := to - i
			// Pass 1: serial hash extension into the window arrays.
			for j := 0; j < k; j++ {
				v = h.ExtendBit(v, byte(w&1))
				w >>= 1
				outs[j] = h.Out(v)
			}
			// Pass 2: independent early loads of every probe's bucket.
			if touch != nil {
				for j := 0; j < k; j++ {
					sink ^= touch(outs[j])
				}
			}
			// Pass 3: resolve probes in position order (hit order is part
			// of the determinism contract — decompose keeps the first).
			d := s.edge.From.Depth + i
			for j := 0; j < k; j++ {
				if info, ok := lookup(outs[j], d+j+1); ok {
					if len(hits) == cap(hits) {
						hits = arena.extend(hits)
					}
					hits = append(hits, rawHit{edge: s.edge, off: i + j + 1, info: info})
				}
			}
			i = to
		}
		work((end-s.off)/8 + (end - s.off) + 1)
	}
	if sink == sinkSentinel {
		probeSink = sink
	}
	return hits
}

// openMark records, for a node of a region piece, whether one of the
// child segments below it is open and holds no hit (probeRegion).
type openMark struct {
	node *trie.Node
	open bool
}

// probeRegion is the region program (§4.4). It looks for what
// HashMatching is for: the deepest block root above each key, where the
// key's bit-by-bit match starts. So it reports, per segment of the piece,
// at most the deepest hit, and only when the segment's end is open: a
// key may lie below it with no deeper hit between. An end is open when it
// reaches the region's depth bound or a key node (HasValue), or when a
// child segment holds no hit and is open itself; an end cut by a master
// hit is closed. Every key's anchor — the deepest hit on its root path —
// is therefore reported, as the segments from it down to the key (or to
// the bound) are all open and hold no deeper hit.
//
// The piece's segments arrive in preorder, so walking them in reverse
// meets every child segment before its parent, and a stack of openMarks
// carries each node's verdict up. A closed segment is neither hashed nor
// probed (one unit of work). An open one is searched by deepestRegionHit.
// top is the piece root's depth. Hits come back in the segments' order,
// one at most per segment, in chunks of t.replies.
func (t *PIMTrie) probeRegion(segs []segment, top int, reg *hvm.Region, work func(int)) []rawHit {
	bound := reg.MaxLen()
	var hits []rawHit
	var markBuf [64]openMark
	marks := markBuf[:0]
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		childOpen := false
		if n := len(marks); n > 0 && marks[n-1].node == s.edge.To {
			childOpen, marks = marks[n-1].open, marks[:n-1]
		}
		// A segment shipped whole may run past the bound; the round ships
		// it clamped (clampSegs), ending mid-edge at the bound uncut.
		d := s.edge.From.Depth + s.end
		open := d > bound || !s.cut && (s.end < s.edge.Label.Len() || d >= bound || s.edge.To.HasValue || childOpen)
		found := false
		if open {
			rh, ok, cost := deepestRegionHit(t.h, s, top, bound, reg)
			work(cost)
			if found = ok; ok {
				if len(hits) == cap(hits) {
					hits = t.replies.extend(hits)
				}
				hits = append(hits, rh)
			}
		} else {
			work(1)
		}
		if s.off == 0 {
			if n := len(marks); n > 0 && marks[n-1].node == s.edge.From {
				marks[n-1].open = marks[n-1].open || open && !found
			} else {
				marks = append(marks, openMark{node: s.edge.From, open: open && !found})
			}
		}
	}
	slices.Reverse(hits)
	return hits
}

// deepestRegionHit searches an open segment s of a region piece rooted at
// depth top: it hashes the segment top-down from its start value and
// probes it bottom-up, up to the region's depth bound, stopping at the
// first member that verifies on the module. That is Len equal to the
// probed depth, and S_last equal to the query's window bits below top;
// the bits above top are the master-verified region root's, which every
// member of the region extends. So the module's check is the host's
// checkHit, and a hash false positive at a deeper probe cannot hide the
// true hit above it.
//
// When the clamped window reaches at least one whole word past the word
// its start depth lies in (classWindow), the segment probes per bit only
// to that word's end and from there one pivot class per word (§4.4.2),
// deepest class first, after making the region's class index current
// (rebuild charged). Either way the per-bit window spans less than two
// words. Work: one unit per 8 bits hashed, one per per-bit probe, 8 per
// class looked up and one per class member examined, plus one.
func deepestRegionHit(h *hashing.Hasher, s segment, top, bound int, reg *hvm.Region) (rawHit, bool, int) {
	const w = bitstr.WordBits
	from, l := s.edge.From.Depth, s.edge.Label
	end := min(s.end, bound-from)
	if end <= s.off {
		return rawHit{}, false, 1
	}
	b1, dEnd, classes := classWindow(s, bound)
	if classes {
		end = b1 - from
	}
	var outs [2 * w]uint64
	v := s.startVal
	for i := s.off; i < end; {
		to := min((i|(w-1))+1, end)
		x := l.RangeWord(i, to)
		for j := i; j < to; j++ {
			v = h.ExtendBit(v, byte(x&1))
			x >>= 1
			outs[j-s.off] = h.Out(v)
		}
		i = to
	}
	cost := (end-s.off)/8 + 1
	hit := func(off int, n *hvm.MetaNode) rawHit {
		return rawHit{edge: s.edge, off: off, info: metaInfo{SLast: n.SLast, Block: n.Block}}
	}
	if classes {
		cost += reg.Pivot() + (dEnd-b1)/8
		var valBuf [maxEdgeWords + 1]hashing.Value
		vals := valBuf[:0]
		for b := b1; b <= dEnd; b += w {
			if b > b1 {
				v = h.ExtendRange(v, l, b-w-from, b-from)
			}
			vals = append(vals, v)
		}
		for k := len(vals) - 1; k >= 0; k-- {
			b := b1 + k*w
			hi := min(b+w-1, dEnd)
			cost += 8
			if n, ok := deepestInClass(h, s, top, b1, b, hi, vals[k], reg, &cost); ok {
				return hit(n.Len-from, n), true, cost
			}
		}
	}
	for p := end; p > s.off; p-- {
		cost++
		if n := reg.Lookup(outs[p-1-s.off]); n != nil && n.Len == from+p && suffixWindowEqual(s.edge, p, n.SLast, top) {
			return hit(p, n), true, cost
		}
	}
	return rawHit{}, false, cost
}

// classWindow returns where a region segment's class path would start —
// b1, the end of the word its start depth d0 lies in — and end (dEnd, the
// segment clamped to the region's depth bound), and whether the segment
// takes it: only when dEnd lies at least one whole word past b1.
func classWindow(s segment, bound int) (b1, dEnd int, ok bool) {
	const w = bitstr.WordBits
	d0 := s.edge.From.Depth + s.off
	b1 = d0 - d0%w + w
	dEnd = min(s.edge.From.Depth+s.end, bound)
	return b1, dEnd, dEnd >= b1+w
}

// deepestInClass is one step of §4.4.2's region walk on segment s: the
// pivot class at word boundary b, looked up with hash value v at b and
// the window bits [b, hi). A block root on the query path whose length
// lies in the class's range [b, hi] is an ancestor of the lookup's
// candidate, or the candidate itself: its S_rem is a prefix of the window
// bits, so a member with a longer LCP extends it, and a tie goes to the
// shortest. So the deepest such root is the first of the candidate's
// meta-ancestors in that range that verifies (deepestRegionHit). Depth b1
// itself belongs to the per-bit walk, so no class reaches above the
// segment's first word end. The index must be current
// (hvm.Region.Pivot). It adds one unit of work per ancestor examined.
func deepestInClass(h *hashing.Hasher, s segment, top, b1, b, hi int, v hashing.Value, reg *hvm.Region, cost *int) (*hvm.MetaNode, bool) {
	from, l := s.edge.From.Depth, s.edge.Label
	cand, ok := reg.LookupPivot(h.OutFull(v), l.RangeWord(b-from, hi-from), hi-b)
	if !ok {
		return nil, false
	}
	for n := cand; n != nil && n.Len >= max(b, b1+1); n = n.Parent {
		if n.Len > hi {
			continue
		}
		*cost++
		if suffixWindowEqual(s.edge, n.Len-from, n.SLast, top) {
			return n, true
		}
	}
	return nil, false
}

// rehashHits sets the hash value of every hit in raw, which modules do
// not ship: segs are the segments the hits were probed on, in probe
// order, so each hit extends the value of the hit before it on its edge
// or else the start value of the first segment from there on that holds
// its position. It returns the host work: one unit per 8 bits hashed
// plus one per hit.
func rehashHits(h *hashing.Hasher, segs []segment, raw []rawHit) int {
	work, j := 0, -1
	var at *trie.Edge
	off, v := 0, hashing.Value{}
	for i := range raw {
		rh := &raw[i]
		if rh.edge != at || rh.off < off {
			for j++; segs[j].edge != rh.edge || rh.off <= segs[j].off || rh.off > segs[j].end; j++ {
			}
			at, off, v = rh.edge, segs[j].off, segs[j].startVal
		}
		v = h.ExtendRange(v, rh.edge.Label, off, rh.off)
		work += (rh.off-off)/8 + 1
		off, rh.val = rh.off, v
	}
	return work
}

// resolveMaster completes one master task's reply, which carries the hit
// positions alone: it rehashes each against the chunk segs it was probed
// on and reads the entry from the host's master table. It returns the
// host work (rehashHits).
func (t *PIMTrie) resolveMaster(segs []segment, raw []rawHit) int {
	work := rehashHits(t.h, segs, raw)
	for i := range raw {
		raw[i].info = t.masterInfo(t.h.Out(raw[i].val))
	}
	return work
}

// resolveRegion completes one region share's reply (position, S_last,
// block): the length is the position's depth, as the module checked; the
// hash is rehashed against the share's segs; the region is the share's.
// It returns the host work (rehashHits).
func (t *PIMTrie) resolveRegion(segs []segment, raw []rawHit, region pim.Addr) int {
	work := rehashHits(t.h, segs, raw)
	for i := range raw {
		rh := &raw[i]
		rh.info.Hash, rh.info.Len, rh.info.Region = t.h.Out(rh.val), rh.edge.From.Depth+rh.off, region
	}
	return work
}

// clampSegs cuts segs, in place, to the positions no deeper than bound —
// all a target of that depth bound can match — dropping the segments
// left empty, and returns what is left and its wire size in words. A
// segment cut short ends at the bound, no longer at its hit.
func clampSegs(segs []segment, bound int) ([]segment, int) {
	out, words := segs[:0], 0
	for _, s := range segs {
		if end := min(s.end, bound-s.edge.From.Depth); end < s.end {
			s.end, s.cut = end, false
		}
		if s.end > s.off {
			out = append(out, s)
			words += s.words()
		}
	}
	return out, words
}

// prep is the host-side preparation of one batch (phase A). hashes is
// the node hash of every query-trie compressed node, indexed by the
// dense preorder Node.Index that NodeHashes assigns.
type prep struct {
	qt     *querytrie.QueryTrie
	hashes []hashing.Value
}

func (t *PIMTrie) prepare(batch []bitstr.String) *prep {
	qt := querytrie.Build(batch)
	// Bound edge sizes so chunks and pieces stay shippable.
	qt.Trie.SplitLongEdges(maxEdgeWords * bitstr.WordBits)
	t.sys.CPUWork(qt.SizeWords())
	p := &t.prepScratch
	p.qt = qt
	p.hashes = qt.NodeHashes(t.h, p.hashes)
	return p
}

// matchOutcome is the merged result of one successful matching pass.
// reach, exact and anchorPiece are indexed by the query node's dense
// preorder Node.Index (len(qt.PreNodes) entries each).
type matchOutcome struct {
	qt    *querytrie.QueryTrie
	reach []int      // bits of the node's root-path present in the index
	exact []exactHit // set when the node's string coincided with a data node
	// anchorPiece[i] is the piece (bottommost hit) owning query node i.
	anchorPiece []*piece
}

// lcpOf returns the LCP length for unique key i.
func (o *matchOutcome) lcpOf(i int) int { return o.reach[o.qt.Nodes[i].Index] }

// fold merges one piece's report into the outcome by max-reach; exact
// entries prefer real nodes over mirrors (the deeper pair is
// authoritative at a block boundary), the first report winning
// otherwise.
func (o *matchOutcome) fold(rep *matchReport) {
	for _, r := range rep.reach {
		if int(r.depth) > o.reach[r.idx] {
			o.reach[r.idx] = int(r.depth)
		}
	}
	for _, e := range rep.exact {
		if old := o.exact[e.idx]; !old.set || (old.isMirror && !e.hit.isMirror) {
			o.exact[e.idx] = e.hit
		}
	}
}

// sized returns buf resliced to n elements, reallocated when its
// capacity is short. The contents are unspecified: callers overwrite or
// clear them, which costs O(n) however large buf has grown.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// regionShare is one master piece's share of the region round: pushed to
// its region's module, or (pull) probed on the host against the region
// fetched by task.
type regionShare struct {
	pc   *piece
	task int // index of the round task whose response serves this piece
	pull bool
}

// match runs phases B–D for a prepared batch. Each phase is annotated
// as a span (see DESIGN.md §7): "master-match" and "region-match" are
// the two HashMatching stages of §4.3–4.4 (Algorithms 4 and 5's roles),
// "block-match" is the bit-by-bit push-pull of Algorithm 2.
//
// Every per-phase slice is scratch pooled on the PIMTrie and dead when
// match returns, except the outcome, which lives until the operation
// that asked for it returns.
func (t *PIMTrie) match(p *prep) (*matchOutcome, error) {
	// ----- Phase B: master matching -----------------------------------
	endMaster := t.sys.Phase("master-match")
	chunks := t.chunkEdges(p, t.masterBound())
	rootVal := hashing.EmptyValue()
	hits := append(t.hitBuf[:0], hitRec{
		pos: atNode(p.qt.Trie.Root()), depth: 0, val: rootVal,
		info: t.masterInfo(t.h.Out(rootVal)),
	})
	t.taskBuf = sized(t.taskBuf, len(chunks))
	bTasks := t.taskBuf
	// Every module holds the master table, so one draw places the whole
	// round: chunk i goes to module (r + i) mod P, and the at most P
	// chunks land on distinct modules.
	r, nMods := t.sys.RandModule(), t.sys.P()
	parallel.For(len(chunks), func(i int) {
		ch := chunks[i]
		words := 0
		for _, s := range ch {
			words += s.words()
		}
		addrs := t.masterAddrs
		bTasks[i] = pim.Task{
			Module:    (r + i) % nMods,
			SendWords: words,
			Run: func(m *pim.Module) pim.Resp {
				mo := m.Get(addrs[m.ID()].ID).(*masterObj)
				hits := probeSegments(t.h, ch, mo.entries.MaxLen(), &t.replies, func(h uint64, _ int) (metaInfo, bool) {
					_, ok := mo.entries.Get(h)
					return metaInfo{}, ok
				}, mo.entries.Touch, m.Work)
				return pim.Resp{RecvWords: len(hits)*masterHitWords + 1, Value: hits}
			},
		}
	})
	bResps := t.sys.Round(bTasks)
	t.cpuBuf = sized(t.cpuBuf, len(bResps))
	resolveCPUBy := t.cpuBuf
	parallel.For(len(bResps), func(i int) {
		resolveCPUBy[i] = t.resolveMaster(chunks[i], bResps[i].Value.([]rawHit))
	})
	masterRaw, resolveCPU := t.rawHitBuf[:0], 0
	for i, r := range bResps {
		masterRaw = append(masterRaw, r.Value.([]rawHit)...)
		resolveCPU += resolveCPUBy[i]
	}
	t.rawHitBuf = masterRaw
	if resolveCPU > 0 {
		t.sys.CPUWork(resolveCPU)
	}
	t.replies.reset()
	hits = t.verifyHits(hits, masterRaw)
	endMaster()

	// ----- Phase C: region matching ------------------------------------
	endRegion := t.sys.Phase("region-match")
	masterPieces := t.decompose(p, hits)
	cTasks := t.taskBuf[:0]
	shares := t.regionBuf[:0]
	for _, pc := range masterPieces {
		regAddr := pc.hit.info.Region
		if pc.segs, pc.words = clampSegs(pc.segs, t.regionBound[regAddr]); pc.words == 0 {
			continue
		}
		sh := regionShare{pc: pc, task: len(cTasks), pull: pc.words > t.cfg.PullThreshold}
		if !sh.pull {
			cTasks = append(cTasks, pim.Task{
				Module:    regAddr.Module,
				SendWords: pc.words + 2,
				Run: func(m *pim.Module) pim.Resp {
					reg := m.Get(regAddr.ID).(*regionObj).r
					hits := t.probeRegion(pc.segs, pc.hit.depth, reg, m.Work)
					return pim.Resp{RecvWords: len(hits)*regionHitWords + 1, Value: hits}
				},
			})
		} else if fetch := fetchOf(shares, regAddr); fetch >= 0 {
			sh.task = fetch // the region is already on its way
		} else {
			cTasks = append(cTasks, pim.Task{
				Module:    regAddr.Module,
				SendWords: 1,
				Run: func(m *pim.Module) pim.Resp {
					ro := m.Get(regAddr.ID).(*regionObj)
					return pim.Resp{RecvWords: ro.SizeWords(), Value: ro}
				},
			})
		}
		shares = append(shares, sh)
	}
	t.taskBuf, t.regionBuf = cTasks, shares
	cResps := t.sys.Round(cTasks)
	// The host-side probes of pulled regions run in parallel and only read
	// the fetched snapshots. One snapshot can serve several shares (see
	// fetchOf), so a class index some share needs is made current first,
	// serially, and its rebuild charged to the host. Every share's hits,
	// pushed or pulled, are then completed on the host (resolveRegion).
	probeCPU := 0
	for _, sh := range shares {
		if !sh.pull {
			continue
		}
		reg := cResps[sh.task].Value.(*regionObj).r
		for _, s := range sh.pc.segs {
			if _, _, ok := classWindow(s, reg.MaxLen()); ok {
				probeCPU += reg.Pivot()
				break
			}
		}
	}
	t.shareHitBuf, t.cpuBuf = sized(t.shareHitBuf, len(shares)), sized(t.cpuBuf, len(shares))
	hitsByShare, probeCPUBy := t.shareHitBuf, t.cpuBuf
	parallel.For(len(shares), func(i int) {
		sh := shares[i]
		probeCPUBy[i] = 0
		if sh.pull {
			ro := cResps[sh.task].Value.(*regionObj)
			hitsByShare[i] = t.probeRegion(sh.pc.segs, sh.pc.hit.depth, ro.r, func(w int) { probeCPUBy[i] += w })
		} else {
			hitsByShare[i] = cResps[sh.task].Value.([]rawHit)
		}
		probeCPUBy[i] += t.resolveRegion(sh.pc.segs, hitsByShare[i], sh.pc.hit.info.Region)
	})
	regionRaw := t.rawHitBuf[:0]
	for i := range shares {
		probeCPU += probeCPUBy[i]
		regionRaw = append(regionRaw, hitsByShare[i]...)
	}
	clear(hitsByShare) // do not pin replies the arena could not hold
	t.rawHitBuf = regionRaw
	t.replies.reset()
	if probeCPU > 0 {
		t.sys.CPUWork(probeCPU)
	}
	hits = t.verifyHits(hits, regionRaw)
	t.hitBuf = hits
	endRegion()

	// ----- Phase D: block matching -------------------------------------
	endBlock := t.sys.Phase("block-match")
	defer endBlock()
	pieces := t.decompose(p, hits)
	for _, n := range p.qt.Nodes {
		t.anchorBuf[n.Index].keyed = true
	}
	keyed := pieces[:0] // in hit order: fold keeps the first non-mirror exact entry
	for _, pc := range pieces {
		if pc.keyed {
			keyed = append(keyed, pc)
		}
	}
	pieces = keyed
	nodes := len(p.qt.PreNodes)
	out := &t.outcome
	out.qt, out.anchorPiece = p.qt, t.anchorBuf
	out.reach, out.exact = sized(out.reach, nodes), sized(out.exact, nodes)
	clear(out.reach)
	clear(out.exact)
	t.taskBuf = sized(t.taskBuf, len(pieces))
	dTasks := t.taskBuf
	stops := &t.stops
	parallel.For(len(pieces), func(i int) {
		pc := pieces[i]
		blk := pc.hit.info.Block
		if pc.words <= t.cfg.PullThreshold {
			dTasks[i] = pim.Task{
				Module:    blk.Module,
				SendWords: pc.words + 2,
				Run: func(m *pim.Module) pim.Resp {
					bo := m.Get(blk.ID).(*blockObj)
					rep := matchPiece(pc.root, stops, bo.tr)
					m.Work(rep.work)
					return pim.Resp{RecvWords: rep.words + 1, Value: rep}
				},
			}
		} else {
			dTasks[i] = pim.Task{
				Module:    blk.Module,
				SendWords: 1,
				Run: func(m *pim.Module) pim.Resp {
					bo := m.Get(blk.ID).(*blockObj)
					return pim.Resp{RecvWords: bo.SizeWords(), Value: bo}
				},
			}
		}
	})
	// Host-side matching of pulled blocks fans out; reports are folded
	// serially in task order because fold prefers the first non-mirror
	// exact entry.
	dResps := t.sys.Round(dTasks)
	t.repBuf = sized(t.repBuf, len(dResps))
	reps := t.repBuf
	parallel.For(len(dResps), func(i int) {
		if bo, pulled := dResps[i].Value.(*blockObj); pulled {
			reps[i] = matchPiece(pieces[i].root, stops, bo.tr)
		} else {
			reps[i] = dResps[i].Value.(*matchReport)
		}
	})
	matchCPU := 0
	for i, rep := range reps {
		if _, pulled := dResps[i].Value.(*blockObj); pulled {
			matchCPU += rep.work // a pushed piece's work was charged on its module
		}
		out.fold(rep)
		recycleReport(rep)
	}
	if matchCPU > 0 {
		t.sys.CPUWork(matchCPU)
	}
	return out, nil
}

// fetchOf returns the round task that already fetches region reg for an
// earlier pulled piece, or -1. Distinct master hits name distinct
// regions unless a hash false positive slipped through, and pulled
// pieces are few (each exceeds PullThreshold words), so the scan is
// short.
func fetchOf(shares []regionShare, reg pim.Addr) int {
	for _, sh := range shares {
		if sh.pull && sh.pc.hit.info.Region == reg {
			return sh.task
		}
	}
	return -1
}

// masterInfo builds the metaInfo of the host's master entry under h.
func (t *PIMTrie) masterInfo(h uint64) metaInfo {
	e, _ := t.master.Get(h)
	return metaInfo{Hash: h, Len: e.Len, SLast: e.SLast, Block: e.Block, Region: e.Region}
}

// checkHit applies §4.4.3's verification to a raw hit: the claimed
// block-root length must equal the position depth and S_last must equal
// the query bits just above the position. A mismatch means the hash
// collided on the query side; the hit is a false positive and is dropped
// ("rectify the partitioning" in the paper's terms). True matches are
// never dropped: equal strings verify trivially. Data-side collisions
// (two block roots sharing a hash) are detected separately at index
// build time and trigger the global re-hash.
//
// checkHit is pure — no metric or counter updates — so it is safe to
// run from parallel workers over read-only trie state; verifyHits folds
// the accounting in afterwards.
func (t *PIMTrie) checkHit(rh rawHit) (hitRec, bool) {
	depth := rh.edge.From.Depth + rh.off
	if rh.info.Len != depth {
		return hitRec{}, false
	}
	if !suffixWindowEqual(rh.edge, rh.off, rh.info.SLast, 0) {
		return hitRec{}, false
	}
	return hitRec{pos: onEdge(rh.edge, rh.off), depth: depth, val: rh.val, info: rh.info}, true
}

// verifyHits applies checkHit to every raw hit in parallel and appends
// the survivors to dst in input order. Accounting matches the serial
// loop exactly — 2 CPUWork units per hit and one falseHits increment
// per rejection — but is folded in once on the host goroutine after the
// workers join. The per-hit scratch is pooled on the PIMTrie.
func (t *PIMTrie) verifyHits(dst []hitRec, raw []rawHit) []hitRec {
	n := len(raw)
	if n == 0 {
		return dst
	}
	t.verifyRecs, t.verifyOK = sized(t.verifyRecs, n), sized(t.verifyOK, n)
	recs, ok := t.verifyRecs, t.verifyOK
	parallel.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			recs[i], ok[i] = t.checkHit(raw[i])
		}
	})
	t.sys.CPUWork(2 * n)
	for i := range recs {
		if !ok[i] {
			t.falseHits++
			continue
		}
		dst = append(dst, recs[i])
	}
	return dst
}

// suffixWindowEqual reports whether want equals the suffix window of the
// position off bits down edge e — the last min(depth, WordBits) bits of
// its represented string — in its bits at depth top and deeper (top 0
// compares it whole), without materializing it: the window is matched
// back-to-front against the edge labels on the root path.
func suffixWindowEqual(e *trie.Edge, off int, want bitstr.String, top int) bool {
	depth := e.From.Depth + off
	win := min(depth, bitstr.WordBits)
	if want.Len() != win {
		return false
	}
	stop := max(win-(depth-top), 0) // want's bits above depth top are not compared
	rem := win                      // unmatched prefix length of want
	label, end := e.Label, off
	cur := e.From
	for rem > stop {
		take := min(end, rem-stop)
		if !bitstr.EqualRange(label, end-take, want, rem-take, take) {
			return false
		}
		rem -= take
		if rem == stop {
			return true
		}
		pe := cur.ParentEdge
		if pe == nil {
			// Unreachable: rem ≤ depth, which the root path covers.
			return false
		}
		label, end = pe.Label, pe.Label.Len()
		cur = pe.From
	}
	return true
}

// chunkEdges splits the query trie's edges, cut at the master table's
// depth bound, into at most P chunks of about equal words for the master
// round: an edge is shipped up to depth bound (positions (0, min(len,
// bound − From.Depth)]) and not at all when it starts at or below bound,
// so an index whose master holds only the root ships no chunk. The
// segments are cut in preorder into chunks of ⌈W/P⌉ words, W the words
// of them all, so a chunk exceeds that by less than its last segment
// (edges are split at maxEdgeWords). The chunks are views of one
// segment buffer recycled across batches: they only live until the
// master round's responses are in.
//
// It iterates the flattened preorder scaffolding NodeHashes built (one
// linear array scan instead of a recursive pointer walk), with a
// lookahead touch of upcoming nodes — the grouping path's prefetch
// point. The edge order is exactly the recursive walk's (both child
// edges of a node, in bit order, before descending).
func (t *PIMTrie) chunkEdges(p *prep, bound int) [][]segment {
	segs, words := t.segBuf[:0], 0
	pre := p.qt.PreNodes
	sink := uint64(0)
	for i, nd := range pre {
		if j := i + chunkLookahead; j < len(pre) {
			sink ^= uint64(touchNode(pre[j]))
		}
		if nd.Depth >= bound {
			continue
		}
		for b := 0; b < 2; b++ {
			if e := nd.Child[b]; e != nil {
				s := segment{edge: e, off: 0, end: min(e.Label.Len(), bound-nd.Depth), startVal: p.hashes[i]}
				segs = append(segs, s)
				words += s.words()
			}
		}
	}
	if sink == sinkSentinel {
		probeSink = sink
	}
	t.segBuf = segs
	chunks := t.chunkBuf[:0]
	target := (words + t.sys.P() - 1) / t.sys.P()
	start, w := 0, 0
	for i, s := range segs {
		if w += s.words(); w >= target || i == len(segs)-1 {
			chunks = append(chunks, segs[start:i+1:i+1])
			start, w = i+1, 0
		}
	}
	t.chunkBuf = chunks
	return chunks
}

// chunkLookahead is the preorder lookahead distance of chunkEdges'
// touch; see bitstr's prefetch notes.
const chunkLookahead = 4

// touchNode reads the fields of an upcoming node that the chunking
// loop will need (child edges and their label lengths) so the loads
// are in flight early; the value is discarded into a sink.
func touchNode(n *trie.Node) int {
	v := 0
	for b := 0; b < 2; b++ {
		if e := n.Child[b]; e != nil {
			v += e.Label.Len()
		}
	}
	return v
}

// piece is the query-trie region below one hit, truncated at deeper
// hits: the unit of region probing and block matching.
type piece struct {
	hit   hitRec
	root  qpos
	segs  []segment
	words int
	group int32 // ordinal among an update's block groups; -1 until grouped
	keyed bool  // holds the node of a batch key: the block round ships it
}

// newPiece hands out a piece from the batch-scoped arena, reset for
// reuse. Arena pieces are recycled at the next decompose call, which is
// safe because pieces never outlive the operation that produced them:
// phase C's pieces are dead once region probing ends, and an outcome's
// pieces are dead once its operation returns.
func (t *PIMTrie) newPiece(hit hitRec, root qpos) *piece {
	if t.pieceUsed == len(t.pieceArena) {
		t.pieceArena = append(t.pieceArena, new(piece))
	}
	pc := t.pieceArena[t.pieceUsed]
	t.pieceUsed++
	pc.hit = hit
	pc.root = root
	pc.segs = pc.segs[:0]
	pc.words = 0
	pc.group = -1
	pc.keyed = false
	return pc
}

// edgeStops lists the hits on every query-trie edge, the edge addressed
// by its To node's dense preorder Index: offs[lo:lo+n] of span[i] are
// the hit offsets (1..label length, a hit on the To node being the label
// length) on the edge into node i, ascending and distinct, and hits the
// matching indices into the hit list decompose was given. decompose
// rebuilds it in O(nodes + hits) of its own batch; the block round's
// module programs then only read it (a piece's walk halts at the next
// hit below it).
type edgeStops struct {
	span []hitSpan
	offs []int32
	hits []int32
}

type hitSpan struct{ lo, n int32 }

// on returns the hit offsets on edge e; a nil table has none.
func (s *edgeStops) on(e *trie.Edge) []int32 {
	if s == nil {
		return nil
	}
	sp := s.span[e.To.Index]
	return s.offs[sp.lo : sp.lo+sp.n]
}

// settle orders one edge's hits by offset — a stable insertion sort,
// the lists hold one or two entries — and drops every hit that repeats
// an earlier one's position (e.g. a region root seen by both the master
// table and its own region index), keeping the first seen.
func (s *edgeStops) settle(sp *hitSpan) {
	offs, hits := s.offs[sp.lo:sp.lo+sp.n], s.hits[sp.lo:sp.lo+sp.n]
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
	w := 1
	for i := 1; i < len(offs); i++ {
		if offs[i] != offs[w-1] {
			offs[w], hits[w] = offs[i], hits[i]
			w++
		}
	}
	sp.n = int32(w)
}

// decompose partitions the query trie by the hit positions: every
// position belongs to the piece of the nearest hit at or above it. The
// hits must include the root hit; hits repeating a position are dropped,
// the first one kept. Pieces come back in hit order. All bookkeeping
// (pieces, the per-edge hit table t.stops, the per-node owner
// t.anchorBuf, result slices) is addressed by the query trie's dense
// preorder index, lives on the PIMTrie and is rebuilt wholesale at the
// next call.
func (t *PIMTrie) decompose(p *prep, hits []hitRec) []*piece {
	t.pieceUsed = 0
	pre, par := p.qt.PreNodes, p.qt.PreParent
	st := &t.stops
	st.span = sized(st.span, len(pre))
	clear(st.span)
	pieceOf := sized(t.pieceOfBuf, len(hits))
	clear(pieceOf)
	t.pieceOfBuf = pieceOf
	anchor := sized(t.anchorBuf, len(pre))
	t.anchorBuf = anchor
	// Bucket the hits by edge with a counting sort, which keeps each
	// edge's hits in hit order.
	anchor[0] = nil
	for i, h := range hits {
		if e := hitEdge(h); e != nil {
			st.span[e.To.Index].n++
		} else if anchor[0] == nil {
			anchor[0] = t.newPiece(h, h.pos)
			pieceOf[i] = anchor[0]
		}
	}
	if anchor[0] == nil {
		panic("core: decompose without a root hit")
	}
	total := int32(0)
	for i := range st.span {
		sp := &st.span[i]
		sp.lo, total, sp.n = total, total+sp.n, 0
	}
	st.offs, st.hits = sized(st.offs, int(total)), sized(st.hits, int(total))
	for i, h := range hits {
		if e := hitEdge(h); e != nil {
			sp := &st.span[e.To.Index]
			st.offs[sp.lo+sp.n], st.hits[sp.lo+sp.n] = int32(hitOff(h, e)), int32(i)
			sp.n++
		}
	}
	// One preorder scan cuts every edge at its hits: a node's parent edge
	// is visited right before the node's subtree, after everything left of
	// it, so segments join their pieces in the order of a recursive walk.
	for i := 1; i < len(pre); i++ {
		e := pre[i].ParentEdge
		cur := anchor[par[i]]
		from, fromVal := 0, p.hashes[par[i]]
		sp := &st.span[i]
		if sp.n > 1 {
			st.settle(sp)
		}
		for k := sp.lo; k < sp.lo+sp.n; k++ {
			off, hi := int(st.offs[k]), st.hits[k]
			cur.addSeg(segment{edge: e, off: from, end: off, startVal: fromVal, cut: true})
			cur = t.newPiece(hits[hi], onEdge(e, off))
			pieceOf[hi] = cur
			from, fromVal = off, hits[hi].val
		}
		if from < e.Label.Len() {
			cur.addSeg(segment{edge: e, off: from, end: e.Label.Len(), startVal: fromVal})
		}
		anchor[i] = cur
	}
	out := t.piecesBuf[:0]
	for _, pc := range pieceOf {
		if pc != nil {
			out = append(out, pc)
		}
	}
	t.piecesBuf = out
	return out
}

func (pc *piece) addSeg(s segment) {
	pc.segs = append(pc.segs, s)
	pc.words += s.words()
}

// hitEdge returns the query-trie edge a hit lies on (the parent edge of
// a hit on a node), nil for the root.
func hitEdge(h hitRec) *trie.Edge {
	if h.pos.node != nil {
		return h.pos.node.ParentEdge
	}
	return h.pos.edge
}

func hitOff(h hitRec, e *trie.Edge) int {
	if h.pos.node != nil {
		return e.Label.Len()
	}
	return h.pos.off
}
