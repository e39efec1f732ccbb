package core

// Host-side batch preparation split from execution. Prepare runs phase
// A — query-trie construction, long-edge splitting and node hashing —
// and the *Prepared operation variants consume the result, charging
// the exact model cost the inline preparation would have charged, so
// metrics stay bit-identical to the plain operations.
//
// Prepare is a batch method like every other: single-caller, under the
// beginBatch guard. The only index state it reads is the current hash
// function, which a later batch may replace (global re-hash, §4.4.3).
// A preparation therefore records the hasher it hashed with, and a
// consumer that finds a different one installed silently rebuilds
// inline — correctness is unaffected.

import (
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/hashing"
	"github.com/pimlab/pimtrie/internal/querytrie"
)

// Prepared is the host-side phase-A precomputation of one batch: the
// query trie (split to shippable edge lengths) and the node hashes under
// one hash function. It is immutable after Prepare returns and must be
// consumed by at most one *Prepared operation.
type Prepared struct {
	batch  []bitstr.String
	qt     *querytrie.QueryTrie
	hashes []hashing.Value
	h      *hashing.Hasher
}

// Batch returns the batch the preparation was built for. The slice is
// the caller's original; it must not be mutated before consumption.
func (p *Prepared) Batch() []bitstr.String { return p.batch }

// Prepare precomputes the host-side query trie and node hashes for a
// batch. It charges no model cost — the consuming operation accounts
// for the preparation as if it ran inline.
func (t *PIMTrie) Prepare(batch []bitstr.String) *Prepared {
	defer t.beginBatch("Prepare")()
	qt := querytrie.Build(batch)
	qt.Trie.SplitLongEdges(t.cfg.MasterChunkWords * bitstr.WordBits)
	return &Prepared{
		batch:  batch,
		qt:     qt,
		hashes: qt.NodeHashes(t.h, nil),
		h:      t.h,
	}
}

// consumePrepared turns a staged preparation into the internal prep
// form, charging the same model cost prepare would have. It returns nil
// when the preparation is stale (a re-hash installed a new hash
// function since it was built), in which case the caller must prepare
// inline.
func (t *PIMTrie) consumePrepared(pb *Prepared) *prep {
	if pb == nil || pb.h != t.h {
		return nil
	}
	t.sys.CPUWork(pb.qt.SizeWords())
	return &prep{qt: pb.qt, hashes: pb.hashes}
}
