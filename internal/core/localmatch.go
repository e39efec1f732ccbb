package core

// Local trie matching: the bit-by-bit comparison between a query-trie
// piece and a data block (the Match() of Algorithm 2, run on a PIM
// module after a push or on the CPU after a pull). The query piece is
// the query-trie subgraph below one verified hit position, truncated at
// deeper hit positions; the hit guarantees the piece root's string
// equals the block root's string, so the walk starts aligned at the two
// roots and compares edge labels word-at-a-time.

import (
	"slices"
	"sync"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/trie"
)

// qpos is a position in a trie: either exactly at a compressed node
// (node != nil) or off bits down edge's label (0 < off < label length).
// It canonicalizes edge endpoints to nodes via onEdge.
type qpos struct {
	node *trie.Node
	edge *trie.Edge
	off  int
}

func atNode(n *trie.Node) qpos { return qpos{node: n} }

func onEdge(e *trie.Edge, off int) qpos {
	switch {
	case off == 0:
		return qpos{node: e.From}
	case off == e.Label.Len():
		return qpos{node: e.To}
	default:
		return qpos{edge: e, off: off}
	}
}

// exactHit records that a query node's string coincided with a data
// compressed node; the zero value (set false) records nothing.
type exactHit struct {
	set      bool
	hasValue bool
	value    uint64
	isMirror bool
}

// reachEntry and exactEntry are the sparse records of a matchReport.
// idx is the query node's dense preorder Node.Index.
type reachEntry struct {
	idx   int32
	depth int32 // bits of the node's root-path matched
}

type exactEntry struct {
	idx int32
	hit exactHit
}

// matchReport is the outcome of matching one piece against one block: a
// sparse list of the query nodes the walk touched. A module program
// fills its own report and shares nothing with the others, so the block
// round stays race-free; the host folds the reports into the dense
// matchOutcome in task order. All depths are absolute (from the
// data-trie root), which makes folding a plain max.
type matchReport struct {
	reach []reachEntry // one entry per node touched, holding its deepest claim
	exact []exactEntry // nodes whose string coincided with a data node
	words int          // wire size when fetched from a module
	work  int          // word operations the walk cost, charged by the caller
}

// matcher carries the walk state.
type matcher struct {
	rep   *matchReport
	stops *edgeStops
	block *trie.Trie
	// slot[i] is the position of node i's entry in rep.reach, valid only
	// when that entry names i — a sparse set, so slot is never cleared
	// and stale contents from an earlier walk are harmless.
	slot []int32
}

// setReach raises node n's claim to d. The wire count grows on every
// raise, not per node: a divergence at offset 0 of an edge re-marks the
// whole subtree below the edge's From node, siblings already walked
// included.
func (m *matcher) setReach(n *trie.Node, d int) {
	i, rep := int(n.Index), m.rep
	if i >= len(m.slot) {
		m.slot = slices.Grow(m.slot, i+1-len(m.slot))
		m.slot = m.slot[:cap(m.slot)]
	}
	if s := int(m.slot[i]); s < len(rep.reach) && rep.reach[s].idx == int32(i) {
		if int32(d) > rep.reach[s].depth {
			rep.reach[s].depth = int32(d)
			rep.words++
		}
		return
	}
	m.slot[i] = int32(len(rep.reach))
	rep.reach = append(rep.reach, reachEntry{idx: int32(i), depth: int32(d)})
	rep.words++
}

// matcherPool and reportPool recycle the per-piece walk state.
// matchPiece runs concurrently from PIM-module executors and host
// workers, so a sync.Pool (not a PIMTrie field) is required. The
// matcher is returned to its pool before matchPiece returns; the report
// escapes to the caller, which hands it back via recycleReport once
// folded (callers that never recycle, e.g. tests, just let it be
// garbage).
var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// A typical piece touches a handful of query nodes; starting a fresh
// report there saves the first few append doublings.
var reportPool = sync.Pool{New: func() any {
	return &matchReport{reach: make([]reachEntry, 0, 8), exact: make([]exactEntry, 0, 4)}
}}

func newReport() *matchReport {
	rep := reportPool.Get().(*matchReport)
	rep.reach, rep.exact, rep.words, rep.work = rep.reach[:0], rep.exact[:0], 0, 0
	return rep
}

// recycleReport returns a report to the pool. The caller must hold the
// only reference.
func recycleReport(rep *matchReport) { reportPool.Put(rep) }

// matchPiece walks the query trie from start (whose represented string
// equals the block root's string) against the block's local trie,
// halting at the next hit position in stops (nil: none). The report's
// work counts the walk's word operations; the caller charges it as PIM
// or CPU work.
func matchPiece(start qpos, stops *edgeStops, block *trie.Trie) *matchReport {
	m := matcherPool.Get().(*matcher)
	m.rep = newReport()
	m.stops = stops
	m.block = block
	droot := atNode(block.Root())
	if start.node != nil {
		m.record(start.node, droot)
		m.fromNode(start.node, droot)
	} else {
		m.matchEdge(start.edge, start.off, droot)
	}
	rep := m.rep
	*m = matcher{slot: m.slot}
	matcherPool.Put(m)
	return rep
}

// record notes that query node n matched fully, with the data side at d.
func (m *matcher) record(n *trie.Node, d qpos) {
	m.setReach(n, n.Depth)
	if d.node != nil {
		m.rep.exact = append(m.rep.exact, exactEntry{idx: n.Index, hit: exactHit{
			set: true, hasValue: d.node.HasValue, value: d.node.Value, isMirror: d.node.Mirror,
		}})
		m.rep.words++
	}
}

// diverge assigns reach = depth to every query compressed node at or
// below p (the match ended at absolute depth `depth` on p's path).
func (m *matcher) diverge(p qpos, depth int) {
	var n *trie.Node
	if p.node != nil {
		n = p.node
	} else {
		n = p.edge.To
	}
	m.divergeRec(n, depth)
}

func (m *matcher) divergeRec(v *trie.Node, depth int) {
	m.setReach(v, depth)
	for b := 0; b < 2; b++ {
		if e := v.Child[b]; e != nil {
			m.divergeRec(e.To, depth)
		}
	}
}

// fromNode continues the match below query node qn with the data side
// aligned at d.
func (m *matcher) fromNode(qn *trie.Node, d qpos) {
	for b := 0; b < 2; b++ {
		if e := qn.Child[b]; e != nil {
			m.matchEdge(e, 0, d)
		}
	}
}

// nextStop returns where a walk standing off bits down edge e must halt:
// the smallest hit offset strictly greater than off, or the label length
// if the To node is a hit (even when the walk already stands on it — a
// hit on the To node bars the descent below it), or label length+1 if
// neither. The walk never passes a hit, so the first one past off is
// this piece's stop whichever piece the later ones bound.
func (m *matcher) nextStop(e *trie.Edge, off int) int {
	end := e.Label.Len()
	for _, s := range m.stops.on(e) {
		if int(s) > off || int(s) == end {
			return int(s)
		}
	}
	return end + 1
}

// matchEdge matches query edge qe from offset qoff onward against the
// data side at position d (aligned with qe's position qoff).
func (m *matcher) matchEdge(qe *trie.Edge, qoff int, d qpos) {
	ql := qe.Label
	for {
		stopAt := m.nextStop(qe, qoff)
		if qoff == ql.Len() {
			// Query edge consumed: record its endpoint and continue below,
			// unless a deeper pair owns the node.
			m.record(qe.To, d)
			if stopAt == ql.Len() || m.mirrorAt(d) {
				return
			}
			m.fromNode(qe.To, d)
			return
		}
		// Position the data side on an edge.
		if d.node != nil {
			if m.mirrorAt(d) {
				// Continuing past a mirror belongs to the child block's
				// pair; conservatively end here.
				m.diverge(onEdge(qe, qoff), qe.From.Depth+qoff)
				return
			}
			de := d.node.Child[ql.BitAt(qoff)]
			if de == nil {
				m.diverge(onEdge(qe, qoff), qe.From.Depth+qoff)
				return
			}
			d = qpos{edge: de, off: 0}
		}
		dl := d.edge.Label
		limit := ql.Len()
		if stopAt < limit {
			limit = stopAt
		}
		n := limit - qoff
		if rem := dl.Len() - d.off; rem < n {
			n = rem
		}
		l := bitstr.LCPRange(ql, qoff, dl, d.off, n)
		m.rep.work += n/bitstr.WordBits + 1
		qoff += l
		d = onEdge(d.edge, d.off+l)
		if l < n {
			m.diverge(onEdge(qe, qoff), qe.From.Depth+qoff)
			return
		}
		if qoff == stopAt && qoff < ql.Len() {
			// Deeper hit mid-edge: its pair continues from here.
			return
		}
		// Otherwise loop: either the query edge is consumed (handled at
		// the top) or the data edge was consumed (d normalized to a node).
	}
}

// mirrorAt reports whether d sits exactly on a mirror leaf.
func (m *matcher) mirrorAt(d qpos) bool {
	return d.node != nil && d.node.Mirror
}
