package core

// The wire format of the master, region and block rounds: what a match
// ships to modules and reads back, phase by phase, against an independent
// count of what a module can match.

import (
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/pim"
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

// expectedWire derives the three match rounds' traffic for batch from
// the wire contract, counting hits with the every-bit reference and not
// with the module programs: the master round ships every chunk of edges
// cut at the master bound and reads back 1 word per probe that finds a
// master entry, plus 1 per task; each master piece, cut at its region's
// bound, is pushed (its words + 2, reading back 3 per member as long as
// the probed depth, plus 1) or, above the pull threshold, its region is
// fetched once (1 word out, the region back). The block round ships one
// task per distinct anchor piece of the batch's keys, whatever other
// pieces the hits make: pushed (its words + 2, the walk's report + 1
// back) or, above the pull threshold, its block fetched (1 word out, the
// block back).
func expectedWire(t *testing.T, pt *PIMTrie, batch []bitstr.String) (master, region, block wire) {
	t.Helper()
	p := pt.prepare(batch)
	chunks := pt.chunkEdges(p, pt.masterBound())
	replica := pt.sys.Module(0).Get(pt.masterAddrs[0].ID).(*masterObj).entries
	hits := []hitRec{{pos: atNode(p.qt.Trie.Root()), info: pt.masterInfo(pt.h.Out(p.hashes[0]))}}
	for _, ch := range chunks {
		master.tasks++
		master.recv++
		for _, s := range ch {
			master.send += s.words()
		}
		raw := probeEveryBit(pt.h, ch, func(h uint64) (metaInfo, bool) {
			_, ok := replica.Get(h)
			return metaInfo{}, ok
		})
		for _, rh := range raw {
			master.recv += masterHitWords
			rh.info = pt.masterInfo(pt.h.Out(rh.val))
			if h, ok := pt.checkHit(rh); ok {
				hits = append(hits, h)
			}
		}
	}
	regions := map[pim.Addr]*regionObj{}
	for i := 0; i < pt.sys.P(); i++ {
		pt.sys.Module(i).EachID(func(id uint64, obj any) {
			if ro, ok := obj.(*regionObj); ok {
				regions[pim.Addr{Module: i, ID: id}] = ro
			}
		})
	}
	fetched := map[pim.Addr]bool{}
	var regionHits []hitRec
	for _, pc := range pt.decompose(p, hits) {
		ra := pc.hit.info.Region
		segs, words := clampSegs(pc.segs, regions[ra].r.MaxLen())
		switch {
		case words == 0:
		case words > pt.cfg.PullThreshold:
			if !fetched[ra] {
				fetched[ra] = true
				region.tasks++
				region.send++
				region.recv += regions[ra].SizeWords()
			}
		default:
			region.tasks++
			region.send += words + 2
			region.recv++
		}
		for _, rh := range probeEveryBit(pt.h, segs, func(h uint64) (metaInfo, bool) {
			n := regions[ra].r.Lookup(h)
			if n == nil {
				return metaInfo{}, false
			}
			return metaInfo{Hash: h, Len: n.Len, SLast: n.SLast, Block: n.Block, Region: ra}, true
		}) {
			if rh.info.Len != rh.edge.From.Depth+rh.off {
				continue
			}
			if words <= pt.cfg.PullThreshold {
				region.recv += regionHitWords
			}
			if h, ok := pt.checkHit(rh); ok {
				regionHits = append(regionHits, h)
			}
		}
	}
	pt.decompose(p, append(hits, regionHits...))
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
// traffic is pinned to the word. The block round ships only the pieces
// that hold a key: one task per distinct key anchor, so one for one key
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
		// and they hit 3 members (3 words each, +1 per task). Of the
		// pieces below the hits only the key's anchor is matched: one
		// 2-word segment (+2) out, the key node's reach and exact entry
		// (+1) back.
		{"LCP/one-key", one, func(q []bitstr.String) { pt.LCP(q) }, wire{1, 2, 5}, wire{3, 12, 12}, wire{1, 4, 3}},
		{"Get/one-key", one, func(q []bitstr.String) { pt.Get(q) }, wire{1, 2, 5}, wire{3, 12, 12}, wire{1, 4, 3}},
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
