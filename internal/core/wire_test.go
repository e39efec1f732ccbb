package core

// The wire format of the master, region and block rounds: what a match
// ships to modules and reads back, phase by phase, against an independent
// count of what a module can match.

import (
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// phaseRecorder keeps every round by the innermost phase it ran in.
type phaseRecorder struct {
	stack  []string
	rounds map[string][]pim.RoundTrace
}

func (r *phaseRecorder) BeginPhase(name string) { r.stack = append(r.stack, name) }
func (r *phaseRecorder) EndPhase()              { r.stack = r.stack[:len(r.stack)-1] }
func (r *phaseRecorder) RecordCPUWork(int)      {}

func (r *phaseRecorder) RecordRound(tr pim.RoundTrace) {
	if r.rounds == nil {
		r.rounds = map[string][]pim.RoundTrace{}
	}
	name := ""
	if len(r.stack) > 0 {
		name = r.stack[len(r.stack)-1]
	}
	r.rounds[name] = append(r.rounds[name], tr.Clone())
}

// wire is one round's traffic.
type wire struct{ tasks, send, recv int }

func (r *phaseRecorder) wire(t *testing.T, phase string) wire {
	t.Helper()
	rs := r.rounds[phase]
	if len(rs) != 1 {
		t.Fatalf("phase %s ran %d rounds, want 1", phase, len(rs))
	}
	return wire{rs[0].Tasks, int(rs[0].SendWords), int(rs[0].RecvWords)}
}

// masterReference runs the master round's reference for a prepared
// batch: every chunk of edges cut at the master bound walked bit by bit.
// It returns the hits that verify, the root hit first, and the round's
// traffic: the chunks' words out, 1 word back per probe that finds a
// master entry, plus 1 per task.
func masterReference(pt *PIMTrie, p *prep) ([]hitRec, wire) {
	var w wire
	replica := pt.sys.Module(0).Get(pt.masterAddrs[0].ID).(*masterObj).entries
	hits := []hitRec{{pos: atNode(p.qt.Trie.Root()), info: pt.masterInfo(pt.h.Out(p.hashes[0]))}}
	for _, ch := range pt.chunkEdges(p, pt.masterBound()) {
		w.tasks++
		w.recv++
		for _, s := range ch {
			w.send += s.words()
		}
		raw := probeEveryBit(pt.h, ch, func(h uint64) (metaInfo, bool) {
			_, ok := replica.Get(h)
			return metaInfo{}, ok
		})
		for _, rh := range raw {
			w.recv += masterHitWords
			rh.info = pt.masterInfo(pt.h.Out(rh.val))
			if h, ok := pt.checkHit(rh); ok {
				hits = append(hits, h)
			}
		}
	}
	return hits, w
}

// regionReference runs the region round's reference below the master
// hits: each master piece, cut at its region's bound, walked bit by bit
// against its region. It returns every hit that verifies (all), those the
// open-end rule keeps (kept, openFrontier) and the round's traffic: a
// piece is pushed (its words + 2 out, 3 words back per kept hit, plus 1)
// or, above the pull threshold, its region is fetched once (1 word out,
// the region back).
func regionReference(pt *PIMTrie, p *prep, master []hitRec) (all, kept []hitRec, w wire) {
	regions := map[pim.Addr]*regionObj{}
	for i := 0; i < pt.sys.P(); i++ {
		pt.sys.Module(i).EachID(func(id uint64, obj any) {
			if ro, ok := obj.(*regionObj); ok {
				regions[pim.Addr{Module: i, ID: id}] = ro
			}
		})
	}
	fetched := map[pim.Addr]bool{}
	for _, pc := range pt.decompose(p, master) {
		ra := pc.hit.info.Region
		bound := regions[ra].r.MaxLen()
		segs, words := clampSegs(pc.segs, bound)
		switch {
		case words == 0:
		case words > pt.cfg.PullThreshold:
			if !fetched[ra] {
				fetched[ra] = true
				w.tasks++
				w.send++
				w.recv += regions[ra].SizeWords()
			}
		default:
			w.tasks++
			w.send += words + 2
			w.recv++
		}
		var raw []rawHit
		for _, rh := range probeEveryBit(pt.h, segs, func(h uint64) (metaInfo, bool) {
			n := regions[ra].r.Lookup(h)
			if n == nil {
				return metaInfo{}, false
			}
			return metaInfo{Hash: h, Len: n.Len, SLast: n.SLast, Block: n.Block, Region: ra}, true
		}) {
			if h, ok := pt.checkHit(rh); ok {
				raw = append(raw, rh)
				all = append(all, h)
			}
		}
		for _, rh := range openFrontier(segs, raw, bound) {
			if words <= pt.cfg.PullThreshold {
				w.recv += regionHitWords
			}
			h, _ := pt.checkHit(rh)
			kept = append(kept, h)
		}
	}
	return all, kept, w
}

// expectedWire derives the three match rounds' traffic for batch from
// the wire contract, counting hits with the every-bit reference and not
// with the module programs (masterReference, regionReference). The block
// round ships one task per distinct anchor piece of the batch's keys,
// cut by the master and kept region hits: pushed (its words + 2, the
// walk's report + 1 back) or, above the pull threshold, its block fetched
// (1 word out, the block back).
func expectedWire(t *testing.T, pt *PIMTrie, batch []bitstr.String) (master, region, block wire) {
	t.Helper()
	p := pt.prepare(batch)
	hits, master := masterReference(pt, p)
	_, kept, region := regionReference(pt, p, hits)
	pt.decompose(p, append(hits, kept...))
	shipped := map[*piece]bool{}
	for _, n := range p.qt.Nodes {
		pc := pt.anchorBuf[n.Index]
		if shipped[pc] {
			continue
		}
		shipped[pc] = true
		bo := pt.sys.Module(pc.hit.info.Block.Module).Get(pc.hit.info.Block.ID).(*blockObj)
		block.tasks++
		if pc.words > pt.cfg.PullThreshold {
			block.send++
			block.recv += bo.SizeWords()
			continue
		}
		block.send += pc.words + 2
		block.recv += matchPiece(pc.root, &pt.stops, bo.tr).words + 1
	}
	return master, region, block
}

// TestMatchWireAccounting: the three match rounds of an LCP and a Get
// batch, of a 4096-key batch and of one key, ship and read back exactly
// what the wire contract says (expectedWire), and the one-key calls'
// traffic is pinned to the word. The region round replies only with the
// hits a key can anchor at; the block round ships only the pieces that
// hold a key: one task per distinct key anchor, so one for one key
// however many block roots its path crosses.
func TestMatchWireAccounting(t *testing.T) {
	g := workload.New(11)
	keys := g.VarLen(3000, 48, 160)
	sys := pim.NewSystem(16, pim.WithSeed(11))
	defer sys.Close()
	pt := New(sys, Config{HashSeed: 11})
	pt.Build(keys, g.Values(len(keys)))
	batch := append(g.PrefixQueries(keys, 2048, 16), g.FixedLen(2048, 96)...)
	one := []bitstr.String{keys[17]}

	for _, tc := range []struct {
		name                  string
		batch                 []bitstr.String
		run                   func([]bitstr.String)
		master, region, block wire // the one-key calls' exact traffic
	}{
		{"LCP", batch, func(q []bitstr.String) { pt.LCP(q) }, wire{}, wire{}, wire{}},
		{"Get", batch, func(q []bitstr.String) { pt.Get(q) }, wire{}, wire{}, wire{}},
		// The stored key's path crosses 4 region roots below the root: one
		// 2-word segment out, 4 hits + 1 back. Of the 5 pieces it makes, 3
		// reach above their region's bound, each one 2-word segment (+2),
		// and they hit 3 members. Two of those segments end at the master
		// hit below them, so only the key's own piece replies: one member
		// (3 words), +1 per task. Of the pieces below the hits only the
		// key's anchor is matched: one 2-word segment (+2) out, the key
		// node's reach and exact entry (+1) back.
		{"LCP/one-key", one, func(q []bitstr.String) { pt.LCP(q) }, wire{1, 2, 5}, wire{3, 12, 6}, wire{1, 4, 3}},
		{"Get/one-key", one, func(q []bitstr.String) { pt.Get(q) }, wire{1, 2, 5}, wire{3, 12, 6}, wire{1, 4, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantMaster, wantRegion, wantBlock := expectedWire(t, pt, tc.batch)
			rec := &phaseRecorder{}
			sys.SetRecorder(rec)
			tc.run(tc.batch)
			sys.SetRecorder(nil)
			gotMaster, gotRegion, gotBlock := rec.wire(t, "master-match"), rec.wire(t, "region-match"), rec.wire(t, "block-match")
			if gotMaster != wantMaster || gotRegion != wantRegion || gotBlock != wantBlock {
				t.Fatalf("master round %+v, region round %+v, block round %+v; the wire contract says %+v, %+v and %+v",
					gotMaster, gotRegion, gotBlock, wantMaster, wantRegion, wantBlock)
			}
			if len(tc.batch) == 1 && (gotMaster != tc.master || gotRegion != tc.region || gotBlock != tc.block) {
				t.Fatalf("one key: master round %+v, region round %+v, block round %+v; want %+v, %+v and %+v",
					gotMaster, gotRegion, gotBlock, tc.master, tc.region, tc.block)
			}
			t.Logf("master round %+v, region round %+v, block round %+v", gotMaster, gotRegion, gotBlock)
		})
	}
}

// TestMasterRoundBalanced: the master table is on every module, so the
// master round deals its chunks over distinct modules, and the busiest
// module moves no more than an even share of the round's segment words
// (⌈W/P⌉) plus one segment, plus its reply: 1 word per task and
// masterHitWords per hit. The hits per chunk are counted with the
// every-bit reference. A round that placed each chunk on its own random
// module would stack two chunks on one module almost surely.
func TestMasterRoundBalanced(t *testing.T) {
	const p = 64
	g := workload.New(12)
	keys := g.VarLen(20000, 48, 160)
	sys := pim.NewSystem(p, pim.WithSeed(12))
	defer sys.Close()
	pt := New(sys, Config{HashSeed: 12})
	pt.Build(keys, g.Values(len(keys)))
	batch := append(g.PrefixQueries(keys, 2048, 16), g.FixedLen(2048, 96)...)
	replica := pt.sys.Module(0).Get(pt.masterAddrs[0].ID).(*masterObj).entries

	for _, tc := range []struct {
		name string
		run  func([]bitstr.String)
	}{
		{"LCP", func(q []bitstr.String) { pt.LCP(q) }},
		{"Get", func(q []bitstr.String) { pt.Get(q) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			words, maxSeg, maxHits := 0, 0, 0
			for _, ch := range pt.chunkEdges(pt.prepare(batch), pt.masterBound()) {
				for _, s := range ch {
					words += s.words()
					maxSeg = max(maxSeg, s.words())
				}
				hits := probeEveryBit(pt.h, ch, func(h uint64) (metaInfo, bool) {
					_, ok := replica.Get(h)
					return metaInfo{}, ok
				})
				maxHits = max(maxHits, len(hits))
			}
			limit := (words+p-1)/p + maxSeg + 1 + maxHits*masterHitWords
			rec := &phaseRecorder{}
			sys.SetRecorder(rec)
			tc.run(batch)
			sys.SetRecorder(nil)
			rs := rec.rounds["master-match"]
			if len(rs) != 1 {
				t.Fatalf("master phase ran %d rounds, want 1", len(rs))
			}
			r := rs[0]
			if r.Tasks < p/2 {
				t.Fatalf("master round of %d tasks on %d modules: too few to test the deal", r.Tasks, p)
			}
			if r.Modules != r.Tasks {
				t.Fatalf("master round put %d tasks on %d modules, want each on its own", r.Tasks, r.Modules)
			}
			if r.MaxIO > int64(limit) {
				t.Fatalf("master round's busiest module moved %d words, over ⌈%d/%d⌉ + a %d-word segment + 1 + %d hits = %d",
					r.MaxIO, words, p, maxSeg, maxHits, limit)
			}
			t.Logf("master round: %d tasks, busiest module %d words (limit %d), mean %.1f",
				r.Tasks, r.MaxIO, limit, float64(r.SendWords+r.RecvWords)/float64(r.Modules))
		})
	}
}

// TestRegionFrontierKeepsEveryAnchor: the region round replies only with
// the hits a key can anchor at, and every key node keeps the anchor block
// the full hit set gives it — the master hits plus every region hit the
// every-bit reference verifies. The index holds PrefixChain keys, so key
// nodes sit inside region pieces with block roots below them. LCP, Get,
// Insert and Delete batches each run against the index the batch before
// left behind.
func TestRegionFrontierKeepsEveryAnchor(t *testing.T) {
	g := workload.New(13)
	keys := append(g.VarLen(3000, 48, 160), g.PrefixChain(300, 3)...)
	sys := pim.NewSystem(16, pim.WithSeed(13))
	defer sys.Close()
	pt := New(sys, Config{HashSeed: 13})
	pt.Build(keys, g.Values(len(keys)))
	chain := keys[3000:]

	for _, tc := range []struct {
		name  string
		batch []bitstr.String
		apply func([]bitstr.String)
	}{
		{"LCP", append(g.PrefixQueries(keys, 1024, 16), everyOther(chain, 0)...), func(b []bitstr.String) { pt.LCP(b) }},
		{"Get", append(g.FixedLen(1024, 96), everyOther(chain, 1)...), func(b []bitstr.String) { pt.Get(b) }},
		{"Insert", append(g.VarLen(1024, 48, 160), g.PrefixChain(200, 5)...), func(b []bitstr.String) { pt.Insert(b, g.Values(len(b))) }},
		{"Delete", append(keys[:1024:1024], chain[100:]...), func(b []bitstr.String) { pt.Delete(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := pt.prepare(tc.batch)
			master, _ := masterReference(pt, p)
			all, kept, _ := regionReference(pt, p, master)
			pt.decompose(p, append(master, all...))
			want := make([]pim.Addr, len(p.qt.Nodes))
			inner := 0
			for i, n := range p.qt.Nodes {
				want[i] = pt.anchorBuf[n.Index].hit.info.Block
				if n.Child[0] != nil || n.Child[1] != nil {
					inner++
				}
			}
			out, err := pt.match(p)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range p.qt.Nodes {
				if got := out.anchorPiece[n.Index].hit.info.Block; got != want[i] {
					t.Fatalf("key %d: anchor block %v from the reported hits, %v from all hits", i, got, want[i])
				}
			}
			if inner == 0 || len(kept) == len(all) {
				t.Fatalf("%d key nodes inside the query trie, %d of %d region hits kept; the test is vacuous", inner, len(kept), len(all))
			}
			t.Logf("%d keys (%d inside the query trie): %d of %d region hits reported, every anchor kept", len(p.qt.Nodes), inner, len(kept), len(all))
			tc.apply(tc.batch)
			if err := pt.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegionFrontierNarrowHash: under a narrow hash a region probe can
// find a member as long as the probed depth whose string is not the
// query's. The region program stops at the first member that verifies on
// the module, S_last included, so such a false positive deeper down does
// not hide the true hit above it. Over 60 seeds at each of HashWidth 12,
// 14 and 16 (n = 600, P = 8, 1 024 queries each), every LCP equals the
// oracle's. A program that stops at the first member of the probed depth
// answers some of them wrong.
func TestRegionFrontierNarrowHash(t *testing.T) {
	for _, width := range []uint{12, 14, 16} {
		wrong, falseHits := 0, 0
		for seed := int64(1); seed <= 60; seed++ {
			g := workload.New(seed)
			keys := g.VarLen(600, 48, 160)
			sys := pim.NewSystem(8, pim.WithSeed(seed))
			pt := New(sys, Config{HashSeed: uint64(seed), HashWidth: width, MaxRedo: 200})
			pt.Build(keys, g.Values(len(keys)))
			oracle := trie.New()
			for i, k := range keys {
				oracle.Insert(k, uint64(i))
			}
			queries := append(g.PrefixQueries(keys, 512, 16), g.VarLen(512, 48, 160)...)
			for i, got := range pt.LCP(queries) {
				if got != oracle.LCPLen(queries[i]) {
					wrong++
				}
			}
			falseHits += pt.FalseHits()
			sys.Close()
		}
		if wrong != 0 {
			t.Errorf("HashWidth %d: %d wrong LCPs over 60 seeds", width, wrong)
			continue
		}
		t.Logf("HashWidth %d: 0 wrong LCPs, %d false hits dropped on the host", width, falseHits)
	}
}

// everyOther returns s[from], s[from+2], ….
func everyOther(s []bitstr.String, from int) []bitstr.String {
	var out []bitstr.String
	for i := from; i < len(s); i += 2 {
		out = append(out, s[i])
	}
	return out
}
