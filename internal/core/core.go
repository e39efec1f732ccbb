// Package core implements PIM-trie (paper §4–5): a batch-parallel,
// skew-resistant binary radix tree distributed over the PIM modules of a
// pim.System.
//
// Layout. The data trie is decomposed into blocks of at most
// Config.BlockWords words (§4.2) placed on uniformly random modules;
// each block is a stand-alone compressed trie whose mirror leaves stand
// in for the roots of its child blocks. The hash value manager (§4.4)
// keeps one meta-node per block, grouped into regions (meta-blocks) of
// at most Config.MetaBlockMax nodes, each region on a random module; a
// master table mapping region-root hashes to region addresses is
// replicated on every module.
//
// Matching (§4.3). A batch is turned into a query trie on the host; its
// edges, cut at the master table's depth bound — the largest root length
// it holds; nothing deeper can hit — are chunked and pushed to random
// modules, which probe every bit position against the replicated master
// table (Algorithm 4's role). Each master hit assigns the query piece
// below it to one region; the piece, cut at that region's own depth
// bound (which the host keeps for every live region), is then probed
// push-pull style for interior block-root hits (Algorithm 5's role).
// Finally the pieces below the bottommost hits are matched bit-by-bit
// against their blocks, again push-pull (Algorithm 2). Every hash hit is verified by length and S_last before being
// trusted (§4.4.3); a failed verification triggers a global re-hash and
// a redo of the batch.
//
// Deviations from the paper are catalogued in DESIGN.md §5; the main one
// is that every region root (not only meta-block-tree roots) is
// registered in the replicated master table, which flattens the O(log P)
// meta-descent into a constant number of rounds at the price of a master
// table replica that is negligible at benchmark scales.
package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/hvm"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// Config holds the PIM-trie parameters (paper Table 2; defaults follow
// DESIGN.md §4).
type Config struct {
	// BlockWords is K_B, the block size bound in words. Zero selects
	// bits.Len(P)²; any value below trie.MinBlockWords (32) is raised to
	// it, so the default is max(32, bits.Len(P)²).
	BlockWords int
	// MetaBlockMax is K_MB, the region size bound in meta-nodes. Zero
	// selects P; any value below 8 is raised to 8.
	MetaBlockMax int
	// PullThreshold is the push/pull boundary in words for region and
	// block matching. Zero selects 4·BlockWords (the paper's log⁴P scaled
	// to our flattened descent).
	PullThreshold int
	// MasterChunkWords bounds, in words, the query-trie edges and so the
	// chunks of the master round. Zero selects 64.
	MasterChunkWords int
	// HashSeed seeds the hash function; HashWidth ≤ 61 selects the output
	// width in bits (narrow widths force collisions; tests only).
	HashSeed  uint64
	HashWidth uint
	// MaxRedo caps collision-triggered redo attempts per batch.
	MaxRedo int
	// Recoverable maintains the host-retained key authority (shadow trie
	// + block directory) needed to rebuild lost modules, even when the
	// system has no fault plan installed. It is implied by an active
	// pim.FaultPlan.
	Recoverable bool
}

func (c Config) withDefaults(p int) Config {
	lg := bits.Len(uint(p))
	if c.BlockWords == 0 {
		c.BlockWords = lg * lg
	}
	if c.BlockWords < trie.MinBlockWords {
		c.BlockWords = trie.MinBlockWords
	}
	if c.MetaBlockMax == 0 {
		c.MetaBlockMax = p
	}
	if c.MetaBlockMax < 8 {
		c.MetaBlockMax = 8
	}
	if c.PullThreshold == 0 {
		c.PullThreshold = 4 * c.BlockWords
	}
	if c.MasterChunkWords == 0 {
		c.MasterChunkWords = 64
	}
	if c.MaxRedo == 0 {
		c.MaxRedo = 20
	}
	return c
}

// metaInfo is a meta-node as the host sees a hit on it. Modules do not
// ship all of it: a master hit's reply is its position alone and a region
// hit's is its position, S_last and block; the host rebuilds the rest
// (match.go).
type metaInfo struct {
	Hash   uint64
	Len    int
	SLast  bitstr.String
	Block  pim.Addr
	Region pim.Addr
}

// metaInfoWords is the wire size of one master-table entry.
const metaInfoWords = 6

// Reply words per hit: a master hit is its position; a region hit adds
// its S_last and block address.
const (
	masterHitWords = 1
	regionHitWords = 3
)

// masterEntry is one replicated master-table record.
type masterEntry struct {
	Region pim.Addr
	Len    int
	SLast  bitstr.String
	Block  pim.Addr
}

// masterObj is the per-module master replica, held in a flat
// open-addressing table so the master round's grouped probes can issue
// independent slot loads (see metaTable). It stores what the master
// round reads — each key and its Len — but is charged the paper's
// replica, metaInfoWords per entry, as every broadcast that fills it is.
type masterObj struct {
	entries *metaTable
}

func (m *masterObj) SizeWords() int { return m.entries.Len()*metaInfoWords + 1 }

// blockObj is a module-resident data-trie block.
type blockObj struct {
	tr       *trie.Trie
	rootLen  int           // bit length of the block root's full string
	rootVal  hashing.Value // full-precision hash of the root string
	rootHash uint64        // hash-out of the root string
	sLast    bitstr.String
	parent   pim.Addr   // parent block
	children []pim.Addr // child blocks; mirror.Value indexes this slice
	region   pim.Addr   // region holding this block's meta-node
}

func (b *blockObj) SizeWords() int {
	return b.tr.SizeWords() + 6 + len(b.children)
}

// regionObj wraps an hvm.Region as a module object.
type regionObj struct {
	r *hvm.Region
}

func (r *regionObj) SizeWords() int { return r.r.SizeWords() }

// PIMTrie is the distributed index. Construct with New; not safe for
// concurrent use (batches are the unit of parallelism, as in the paper).
// Every batch operation asserts single-caller execution via inUse and
// panics on overlap — the pooled scratch below would otherwise corrupt
// silently. The only methods exempt from the guard are Snapshot (it
// reads the lock-protected shadow alone) and the read-only host
// accessors (KeyCount, Config, Health, counters).
type PIMTrie struct {
	sys *pim.System
	cfg Config

	h        *hashing.Hasher
	inUse    atomic.Int32 // single-flight execution guard over the pooled scratch
	hashSalt uint64

	rootBlock   pim.Addr
	master      *metaTable // host copy of the master table; module replicas hold its slots
	masterAddrs []pim.Addr // per-module masterObj addresses
	// regionBound holds every live region's depth bound, its MaxLen —
	// exact, since the region round clamps shipped segments to it and a
	// bound too low would drop hits (Validate check 7). It is set where a
	// region is built, updated, split or freed, from the region itself or
	// from the reply of the program that changed it.
	regionBound map[pim.Addr]int

	nKeys     int
	rehashes  int
	redos     int
	falseHits int

	// Module-loss recovery state (recover.go). The shadow trie is the
	// host-retained key authority; blockDir maps every live block to the
	// absolute bit string of its root, so the host can re-partition a
	// lost module's shard without touching the dead module. dirty is a
	// counter (not deferred) around distributed mutations: a fault while
	// it is nonzero means module state may be half-applied and recovery
	// must rebuild from the shadow instead of repairing in place.
	recoverable  bool
	shadow       *trie.Trie
	shadowMu     sync.RWMutex               // mutation vs Snapshot flattening (snapshot.go)
	shadowVer    uint64                     // mutating batches applied; guarded by shadowMu
	snapCache    atomic.Pointer[shadowSnap] // memoized flattened snapshot, keyed by shadowVer
	blockDir     map[pim.Addr]bitstr.String
	dirty        int
	degraded     bool
	recoveries   int
	fullRebuilds int
	modulesLost  int
	recoveryCost pim.Metrics

	// Per-batch scratch, reused across batches so the steady-state host
	// path allocates proportionally to its results, not to the phases it
	// runs. PIMTrie is not safe for concurrent use (batches are the unit
	// of parallelism), so plain fields suffice; everything here is dead
	// between operations. All of it is slices addressed by position or by
	// the query trie's dense preorder index and reset in O(this batch):
	// nothing on the batch path may cost O(a previous batch), which is
	// why there is no map here (DESIGN.md §9).
	prepScratch prep
	segArena    [][]segment // master-round chunks
	taskBuf     []pim.Task  // the round being assembled
	modBuf      []int       // master-round target modules
	rawHitBuf   []rawHit    // a round's unverified hits, in task order
	replies     replyArena  // where the round's probe tasks wrote them
	verifyRecs  []hitRec    // verifyHits' per-hit verdicts
	verifyOK    []bool
	hitBuf      []hitRec       // verified hits, root hit first
	regionBuf   []regionShare  // region-round shares
	shareHitBuf [][]rawHit     // raw hits per region-round share
	cpuBuf      []int          // host work per master-round task or region-round share
	repBuf      []*matchReport // block-round reports in task order
	pieceArena  []*piece
	pieceUsed   int
	stops       edgeStops // per-edge hit offsets of the last decompose
	anchorBuf   []*piece  // owner piece per query node
	pieceOfBuf  []*piece  // piece per hit, nil for dropped duplicates
	piecesBuf   []*piece
	outcome     matchOutcome
	pieceBuf    []*piece        // update ops: anchor piece per unique key
	relBuf      []bitstr.String // remainder below the anchor per unique key
	markBuf     []bool          // update ops: unique keys of the section applied
	groupBuf    []keyGroup      // update ops: per-block key groups
	groupKeyBuf []int32         // the groups' key ordinals, back to back
	groupOrdBuf []int32         // group ordinals sorted by block address
	groupToBuf  []int32         // group ordinal after folding shared blocks
}

// New creates an empty PIM-trie on the given system.
func New(sys *pim.System, cfg Config) *PIMTrie {
	cfg = cfg.withDefaults(sys.P())
	t := &PIMTrie{
		sys:      sys,
		cfg:      cfg,
		h:        hashing.New(cfg.HashSeed, cfg.HashWidth),
		hashSalt: cfg.HashSeed,
		master:   newMetaTable(0),
	}
	t.recoverable = cfg.Recoverable || sys.FaultsEnabled()
	if t.recoverable {
		t.shadow = trie.New()
		t.blockDir = map[pim.Addr]bitstr.String{}
	}
	// Construction is not a recoverable window: an index that loses a
	// module before it exists has nothing to rebuild from.
	sys.SuspendFaults()
	defer sys.ResumeFaults()
	defer sys.Phase("init")()
	// Install empty master replicas and the empty root block + region.
	t.masterAddrs = make([]pim.Addr, sys.P())
	all := make([]int, sys.P())
	for i := range all {
		all[i] = i
	}
	t.allocMasters(all)
	// Root block: the empty trie, always present, root string ε.
	rootMod := sys.RandModule()
	regMod := sys.RandModule()
	rootHash := t.h.Out(hashing.EmptyValue())
	rs := sys.Round([]pim.Task{
		{Module: regMod, SendWords: hvm.NodeCostWords, Run: func(m *pim.Module) pim.Resp {
			reg := hvm.NewRegion(&hvm.MetaNode{Hash: rootHash, Len: 0, SLast: bitstr.Empty})
			return pim.Resp{RecvWords: 1, Value: m.Alloc(&regionObj{r: reg})}
		}},
	})
	regAddr := rs[0].Value.(pim.Addr)
	rs = sys.Round([]pim.Task{
		{Module: rootMod, SendWords: 4, Run: func(m *pim.Module) pim.Resp {
			b := &blockObj{tr: trie.New(), rootHash: rootHash, parent: pim.NilAddr, region: regAddr}
			return pim.Resp{RecvWords: 1, Value: m.Alloc(b)}
		}},
	})
	rootAddr := rs[0].Value.(pim.Addr)
	sys.Round([]pim.Task{
		{Module: regMod, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			m.Get(regAddr.ID).(*regionObj).r.Root.Block = rootAddr
			return pim.Resp{}
		}},
	})
	t.rootBlock = rootAddr
	if t.recoverable {
		t.blockDir[rootAddr] = bitstr.Empty
	}
	t.master.Put(rootHash, masterEntry{Region: regAddr, Len: 0, SLast: bitstr.Empty, Block: rootAddr})
	t.regionBound = map[pim.Addr]int{regAddr: 0}
	t.broadcastMaster()
	return t
}

// beginBatch acquires the single-flight execution guard; the returned
// func releases it. Every batch operation holds the guard for its whole
// duration: the per-batch scratch pooled on the PIMTrie (and the
// simulator itself) is owned by exactly one executing batch at a time,
// so a concurrent entry is always a caller bug that would corrupt state
// silently. Failing the CAS panics immediately with a pointer at the
// supported concurrency path.
func (t *PIMTrie) beginBatch(op string) func() {
	if !t.inUse.CompareAndSwap(0, 1) {
		panic("core: concurrent " + op + " on a PIM-trie: batch operations are single-caller " +
			"(batches are the unit of parallelism); serialize Index calls or front the Index with serve.Server")
	}
	return func() { t.inUse.Store(0) }
}

// System returns the underlying PIM system (for metric snapshots).
func (t *PIMTrie) System() *pim.System { return t.sys }

// Config returns the effective configuration.
func (t *PIMTrie) Config() Config { return t.cfg }

// KeyCount returns the number of stored keys.
func (t *PIMTrie) KeyCount() int { return t.nKeys }

// Rehashes returns how many global re-hashes have been triggered; Redos
// returns how many batch redo passes collisions have caused; FalseHits
// counts query-side hash false positives dropped by verification.
func (t *PIMTrie) Rehashes() int  { return t.rehashes }
func (t *PIMTrie) Redos() int     { return t.redos }
func (t *PIMTrie) FalseHits() int { return t.falseHits }

// allocMasters allocates an empty master replica on each of the given
// modules in one round; the next broadcastMaster fills them.
func (t *PIMTrie) allocMasters(mods []int) {
	tasks := make([]pim.Task, len(mods))
	for i, mi := range mods {
		tasks[i] = pim.Task{Module: mi, SendWords: 1, Run: func(m *pim.Module) pim.Resp {
			return pim.Resp{RecvWords: 1, Value: m.Alloc(&masterObj{entries: newReplica(0)})}
		}}
	}
	for i, r := range t.sys.Round(tasks) {
		t.masterAddrs[mods[i]] = r.Value.(pim.Addr)
	}
}

// broadcastMaster pushes the host master table to every module. The
// cost is the full table size; incremental updates use masterDelta.
func (t *PIMTrie) broadcastMaster() {
	defer t.sys.Phase("master-broadcast")()
	addrs, master := t.masterAddrs, t.master
	t.sys.Broadcast(master.Len()*metaInfoWords+1, func(m *pim.Module) pim.Resp {
		m.Get(addrs[m.ID()].ID).(*masterObj).entries = master.replica()
		m.Resize(addrs[m.ID()].ID)
		return pim.Resp{}
	})
}

// masterRemoveAndAdd applies removals and additions to the replicated
// master table in one broadcast round.
func (t *PIMTrie) masterRemoveAndAdd(drop []uint64, add map[uint64]masterEntry) {
	defer t.sys.Phase("master-update")()
	for _, h := range drop {
		t.master.Delete(h)
	}
	for k, v := range add {
		t.master.Put(k, v)
	}
	addrs := t.masterAddrs
	t.sys.Broadcast(len(drop)+len(add)*metaInfoWords, func(m *pim.Module) pim.Resp {
		mo := m.Get(addrs[m.ID()].ID).(*masterObj)
		for _, h := range drop {
			mo.entries.Delete(h)
		}
		for k, v := range add {
			mo.entries.Put(k, v)
		}
		m.Resize(addrs[m.ID()].ID)
		return pim.Resp{}
	})
}

// masterDelta broadcasts a set of added master entries.
func (t *PIMTrie) masterDelta(add map[uint64]masterEntry) error {
	defer t.sys.Phase("master-delta")()
	for k, v := range add {
		if old, dup := t.master.Get(k); dup && (old.Len != v.Len || !bitstr.Equal(old.SLast, v.SLast) || old.Block != v.Block) {
			return hvm.ErrHashCollision{Hash: k}
		}
		t.master.Put(k, v)
	}
	addrs := t.masterAddrs
	t.sys.Broadcast(len(add)*metaInfoWords, func(m *pim.Module) pim.Resp {
		mo := m.Get(addrs[m.ID()].ID).(*masterObj)
		for k, v := range add {
			mo.entries.Put(k, v)
		}
		m.Resize(addrs[m.ID()].ID)
		return pim.Resp{}
	})
	return nil
}

// MasterEntries returns the size of the replicated master table.
func (t *PIMTrie) MasterEntries() int { return t.master.Len() }

// masterBound is the master table's depth bound, which the master round
// clamps shipped segments to.
func (t *PIMTrie) masterBound() int { return t.master.MaxLen() }

// Stats summarizes structural state for diagnostics and experiments.
// The depth bounds are where HashMatching stops hashing a query edge
// (see match.go): MasterBound in the master round, a region's bound in
// the region round. Bounds near the key length mean deep data — block
// roots all the way down, nothing for the bounded walk to skip.
type Stats struct {
	Keys       int
	Blocks     int
	Regions    int
	SpaceWords int
	Rehashes   int
	Redos      int

	MasterBound       int // largest region-root length in the master table
	RegionBoundMedian int // over the regions' largest member lengths
	RegionBoundMax    int
}

// CollectStats walks all module memory (an unaccounted diagnostic pass);
// the depth bounds are the host's, which Validate holds to the modules'.
func (t *PIMTrie) CollectStats() Stats {
	s := Stats{Keys: t.nKeys, Rehashes: t.rehashes, Redos: t.redos}
	total, _ := t.sys.SpaceWords()
	s.SpaceWords = total
	s.MasterBound = t.masterBound()
	for i := 0; i < t.sys.P(); i++ {
		t.sys.Module(i).Each(func(o any) {
			switch o.(type) {
			case *blockObj:
				s.Blocks++
			case *regionObj:
				s.Regions++
			}
		})
	}
	bounds := make([]int, 0, len(t.regionBound))
	for _, b := range t.regionBound {
		bounds = append(bounds, b)
	}
	if len(bounds) > 0 {
		slices.Sort(bounds)
		s.RegionBoundMedian, s.RegionBoundMax = bounds[len(bounds)/2], bounds[len(bounds)-1]
	}
	return s
}
