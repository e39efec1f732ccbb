// Package pimtrie is a Go implementation of PIM-trie — the skew-resistant
// batch-parallel radix-based index for Processing-in-Memory systems of
// Kang et al. (SPAA 2023) — together with an instrumented simulator of
// the PIM Model it is designed for.
//
// An Index stores (bit-string key → uint64 value) pairs distributed over
// P simulated PIM modules and supports batched LongestCommonPrefix, Get,
// Insert, Delete and SubtreeQuery with the paper's load-balance and
// communication guarantees. Metrics() exposes the PIM Model cost
// counters (IO rounds, IO time, communication volume, PIM time, balance)
// so applications and benchmarks can observe the quantities the paper's
// theorems bound.
//
// Basic use:
//
//	idx := pimtrie.New(64, pimtrie.Options{})
//	idx.Insert(keys, values)            // []bitstr.String, []uint64
//	lcp := idx.LCP(queries)             // bits of longest common prefix
//	kvs := idx.Subtree(prefix)          // all pairs extending prefix
//
// Keys are variable-length bit strings; KeyFromBytes, KeyFromString,
// KeyFromUint and KeyFromBits cover the common encodings.
package pimtrie

import (
	"fmt"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/core"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
)

// Key is a variable-length bit-string key.
type Key = bitstr.String

// KV is a stored key-value pair, as returned by Subtree.
type KV = trie.KV

// KeyFromBytes encodes a byte string as a Key (MSB-first per byte, so
// lexicographic orders agree).
func KeyFromBytes(b []byte) Key { return bitstr.FromBytes(b) }

// KeyFromString encodes a textual key.
func KeyFromString(s string) Key { return bitstr.FromBytes([]byte(s)) }

// KeyFromUint encodes an integer as an exactly width-bit key.
func KeyFromUint(v uint64, width int) Key { return bitstr.FromUint64(v, width) }

// KeyFromBits parses a "0101"-style bit literal; it panics on other
// characters (intended for tests and examples).
func KeyFromBits(s string) Key { return bitstr.MustParse(s) }

// Options configures an Index. The block, region and push/pull bounds
// and the hash width are always the paper's defaults (core.Config).
type Options struct {
	// Seed fixes all randomized placement decisions.
	Seed int64
	// Faults installs a deterministic fault-injection plan on the
	// simulated system (module crash-stops, stragglers, truncated
	// transfers). Installing a plan implies Recoverable.
	Faults *FaultPlan
	// Recoverable maintains the host-retained key authority needed to
	// rebuild lost modules even without a fault plan.
	Recoverable bool
}

// Fault-injection types, re-exported from the simulator.
type (
	// FaultPlan drives deterministic fault injection; see pim.FaultPlan.
	FaultPlan = pim.FaultPlan
	// FaultEvent schedules one fault at a fixed round boundary.
	FaultEvent = pim.FaultEvent
	// FaultKind classifies an injected fault.
	FaultKind = pim.FaultKind
	// ModuleLostError reports crash-stopped modules from Apply and
	// TryLoad.
	ModuleLostError = pim.ModuleLostError
	// InvariantError reports a simulator invariant violation (always a
	// bug, never an injected fault).
	InvariantError = pim.InvariantError
	// Health reports fault/recovery status and accumulated repair cost.
	Health = core.Health
)

// Fault kinds for FaultEvent/FaultPlan.
const (
	FaultCrash    = pim.FaultCrash
	FaultStraggle = pim.FaultStraggle
	FaultTruncate = pim.FaultTruncate
)

// Metrics re-exports the PIM Model cost counters.
type Metrics = pim.Metrics

// Recorder re-exports the simulator's observation hook. A Recorder
// receives phase markers and per-round cost breakdowns; internal/obs
// provides the two standard implementations (Tracer for post-hoc
// phase-attributed traces, Monitor for live metrics registries).
type Recorder = pim.Recorder

// Index is a PIM-trie over a simulated PIM system. It is not safe for
// concurrent use: batches are the unit of parallelism, exactly as in the
// paper's model, and the per-batch scratch pooled on the index is owned
// by exactly one executing batch at a time. Concurrent batch calls are
// detected and panic immediately rather than corrupting state; to serve
// concurrent single-key traffic, front the Index with serve.Server,
// which coalesces requests into batches and serializes execution (and
// to scale past one simulated PIM system, shard.Router spreads the
// keyspace over several Index+Server pairs with hot-range migration
// between them).
type Index struct {
	sys  *pim.System
	core *core.PIMTrie
}

// PreparedBatch holds one batch for the *Prepared forms. It precomputes
// nothing: every op prepares its batch inline, inside Apply.
type PreparedBatch struct{ batch []Key }

// New creates an empty index over p PIM modules. It panics if p < 1.
func New(p int, opts Options) *Index {
	if p < 1 {
		panic(fmt.Sprintf("pimtrie: New requires at least one PIM module, got p = %d", p))
	}
	sysOpts := []pim.Option{pim.WithSeed(opts.Seed)}
	if opts.Faults != nil {
		sysOpts = append(sysOpts, pim.WithFaults(*opts.Faults))
	}
	sys := pim.NewSystem(p, sysOpts...)
	cfg := core.Config{
		HashSeed:    uint64(opts.Seed) ^ 0x5eed,
		Recoverable: opts.Recoverable,
	}
	return &Index{sys: sys, core: core.New(sys, cfg)}
}

// Load bulk-loads an empty index (faster than Insert for initial data).
// It panics if len(keys) != len(values).
func (ix *Index) Load(keys []Key, values []uint64) {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("pimtrie: Load called with %d keys but %d values", len(keys), len(values)))
	}
	ix.core.Build(keys, values)
}

// Batch is one batch of tagged sections — Gets, LCPs, Subtrees,
// Inserts (paired with Values) and Deletes — run by Apply. Any section
// may be empty.
type Batch = core.Batch

// Result answers a Batch section by section, position by position:
// Values/Found per Get, LCPs per LCP query, Subtrees per prefix (stored
// pairs in lexicographic order), Deleted per delete (duplicates report
// true once, like sequential deletion).
type Result = core.Result

// Apply runs one batch with one matching pass over the union of its
// keys: it answers every read section from the state before the batch,
// then stores the inserts (later duplicates win), then removes the
// deletes (which match once more when inserts precede them). It panics
// if len(b.Inserts) != len(b.Values). Fault conditions come back as
// errors: on a recoverable index (Options.Faults or Recoverable) faults
// are repaired internally and no error is returned; an error here means
// the index is not recoverable and its contents are suspect.
func (ix *Index) Apply(b Batch) (res Result, err error) {
	err = catchFaults(func() { res = ix.core.Apply(b) })
	return res, err
}

// Insert stores a batch of key-value pairs; later duplicates win.
// It panics if len(keys) != len(values).
func (ix *Index) Insert(keys []Key, values []uint64) {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("pimtrie: Insert called with %d keys but %d values", len(keys), len(values)))
	}
	ix.core.Insert(keys, values)
}

// Delete removes a batch of keys, reporting per key whether it was
// present (duplicates report true once, like sequential deletion).
func (ix *Index) Delete(keys []Key) []bool { return ix.core.Delete(keys) }

// LCP returns, for each query, the length in bits of the longest prefix
// of the query present in the index.
func (ix *Index) LCP(queries []Key) []int { return ix.core.LCP(queries) }

// Get returns the values stored under the queried keys.
func (ix *Index) Get(queries []Key) (values []uint64, found []bool) {
	return ix.core.Get(queries)
}

// Subtree returns every stored pair whose key extends prefix, in
// lexicographic order.
func (ix *Index) Subtree(prefix Key) []KV { return ix.core.SubtreeQuery(prefix) }

// Subtrees answers a batch of prefix scans in one matching pass;
// results[i] holds the pairs extending prefixes[i].
func (ix *Index) Subtrees(prefixes []Key) [][]KV {
	return ix.core.SubtreeQueryBatch(prefixes)
}

// PrepareBatch and the *Prepared forms are sugar over the plain ops:
// PrepareBatch only holds the batch, and each form is its plain op,
// answers and model cost alike.
func (ix *Index) PrepareBatch(batch []Key) *PreparedBatch { return &PreparedBatch{batch: batch} }

func (ix *Index) LCPPrepared(p *PreparedBatch) []int { return ix.LCP(p.batch) }

func (ix *Index) GetPrepared(p *PreparedBatch) (values []uint64, found []bool) {
	return ix.Get(p.batch)
}

func (ix *Index) SubtreesPrepared(p *PreparedBatch) [][]KV { return ix.Subtrees(p.batch) }

func (ix *Index) InsertPrepared(p *PreparedBatch, values []uint64) { ix.Insert(p.batch, values) }

func (ix *Index) DeletePrepared(p *PreparedBatch) []bool { return ix.Delete(p.batch) }

// Len returns the number of stored keys.
func (ix *Index) Len() int { return ix.core.KeyCount() }

// P returns the number of PIM modules.
func (ix *Index) P() int { return ix.sys.P() }

// Metrics returns the cumulative PIM Model cost counters; diff two
// snapshots with Metrics.Sub to cost a single batch.
func (ix *Index) Metrics() Metrics { return ix.sys.Metrics() }

// SetRecorder attaches (or, with nil, detaches) an observation hook to
// the underlying simulated system. At most one recorder is active at a
// time; attaching replaces the previous one. Recorder callbacks run
// synchronously on the goroutine executing batches, so attach before
// putting the index into service (e.g. before handing it to
// serve.NewServer) rather than mid-traffic.
func (ix *Index) SetRecorder(r Recorder) { ix.sys.SetRecorder(r) }

// SpaceWords returns the total PIM memory in use, in machine words.
func (ix *Index) SpaceWords() int {
	total, _ := ix.sys.SpaceWords()
	return total
}

// Stats reports structural counters (blocks, regions, re-hashes).
type Stats = core.Stats

// Stats returns structural diagnostics.
func (ix *Index) Stats() Stats { return ix.core.CollectStats() }

// Health returns the fault/recovery status: degraded state, dead
// modules, completed recoveries and their accumulated model cost, and
// injected-fault counts.
func (ix *Index) Health() Health { return ix.core.Health() }

// Snapshot is an immutable point-in-time view of the stored pairs,
// frozen at a batch boundary: Get, LCPLen, WalkKeys, Keys, KeyCount
// and SubtreeKeys all answer from the frozen version, safe for
// concurrent use, while write batches keep committing on the live
// index. Backups, exports and long analytic scans run against a
// Snapshot instead of stalling the write path.
type Snapshot = trie.Flat

// Snapshot freezes the current contents. Unlike every other batch
// method it is safe to call from any goroutine concurrently with an
// executing batch (it reads only the lock-protected host key
// authority); repeated calls between mutations share one flattened
// copy. The index must be recoverable (Options.Recoverable or
// Options.Faults) — Snapshot panics otherwise, since only recoverable
// indexes retain the host-side state a snapshot freezes.
func (ix *Index) Snapshot() *Snapshot {
	s := ix.core.Snapshot()
	if s == nil {
		panic("pimtrie: Snapshot requires a recoverable index (set Options.Recoverable)")
	}
	return s
}

// catchFaults converts *pim.ModuleLostError and *pim.InvariantError
// panics into errors for Apply and TryLoad; other panics propagate.
func catchFaults(op func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch e := r.(type) {
		case *ModuleLostError:
			err = e
		case *InvariantError:
			err = e
		default:
			panic(r)
		}
	}()
	op()
	return nil
}

// TryLoad is Load returning fault conditions as errors instead of
// panicking, as Apply does.
func (ix *Index) TryLoad(keys []Key, values []uint64) error {
	return catchFaults(func() { ix.Load(keys, values) })
}
