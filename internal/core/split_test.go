package core

// §5.2's block maintenance at amortized cost: a block splits only once
// it holds more than 2·K_B words, into pieces of at most K_B, so a
// piece absorbs at least K_B words of inserts before it splits again;
// and a split runs in place, in two rounds.

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// blocksOf maps every live block to its object (an unaccounted walk).
func blocksOf(sys *pim.System) map[pim.Addr]*blockObj {
	out := map[pim.Addr]*blockObj{}
	for mi := 0; mi < sys.P(); mi++ {
		sys.Module(mi).EachID(func(id uint64, obj any) {
			if bo, ok := obj.(*blockObj); ok {
				out[pim.Addr{Module: mi, ID: id}] = bo
			}
		})
	}
	return out
}

// TestSplitHysteresis grows one leaf block key by key, one-key insert
// batches each: past K_B it stays whole; the insert that takes it past
// 2·K_B splits it into pieces of at most K_B; and Validate rejects a
// block left past 2·K_B.
func TestSplitHysteresis(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	keys := make([]bitstr.String, 300)
	for i := range keys {
		keys[i] = randomKey(r, 96)
	}
	pt, oracle := buildBoth(t, 4, Config{HashSeed: 1, Recoverable: true}, keys)
	kb := pt.cfg.BlockWords
	// The smallest leaf block below the root: every key under its root
	// lands in it.
	leaf, least := pim.NilAddr, kb+1
	for a, bo := range blocksOf(pt.sys) {
		w := bo.tr.SizeWords()
		if len(bo.children) == 0 && bo.rootLen > 0 &&
			(w < least || w == least && (a.Module < leaf.Module || a.Module == leaf.Module && a.ID < leaf.ID)) {
			leaf, least = a, w
		}
	}
	if leaf.IsNil() {
		t.Fatal("no small leaf block to grow")
	}
	root := pt.blockDir[leaf]

	grewPastKB := false
	for step := 0; ; step++ {
		if step > 200 {
			t.Fatal("the block never split")
		}
		before := blocksOf(pt.sys)
		size := before[leaf].tr.SizeWords()
		key := root.Concat(randomKey(r, 40))
		pt.Insert([]bitstr.String{key}, []uint64{uint64(step)})
		oracle.Insert(key, uint64(step))
		if err := pt.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		after := blocksOf(pt.sys)
		grown := after[leaf].tr.SizeWords()
		if len(after) == len(before) {
			if grown > kb {
				grewPastKB = true
			}
			continue
		}
		t.Logf("step %d: split a block of %d words (K_B %d)", step, size, kb)
		// The split. One key adds at most a leaf, a branch node, two
		// edges and its label's words, so the block it split would have
		// held more than 2·K_B words.
		if most := size + 2*(trie.NodeCostWords+trie.EdgeCostWords) + key.Words() + 1; !grewPastKB || most <= 2*kb {
			t.Fatalf("step %d: split a block of %d words (+ ≤ %d for the key); it held more than K_B = %d before: %v",
				step, size, most-size, kb, grewPastKB)
		}
		for a, bo := range after {
			if _, old := before[a]; (!old || a == leaf) && bo.tr.SizeWords() > kb {
				t.Fatalf("step %d: piece %v holds %d words, more than K_B = %d", step, a, bo.tr.SizeWords(), kb)
			}
		}
		break
	}
	checkGet(t, pt, oracle, append(keys, root))

	// A block past 2·K_B, as a split bound raised to 3·K_B would leave it.
	bo := blocksOf(pt.sys)[leaf]
	for bo.tr.SizeWords() <= 2*kb {
		bo.tr.Insert(randomKey(r, 40), 0)
	}
	if err := pt.Validate(); err == nil || !strings.Contains(err.Error(), "2·K_B") {
		t.Fatalf("Validate on a block of %d words: %v", bo.tr.SizeWords(), err)
	}
}

// TestInsertSequenceCost runs 40 insert batches of 512 keys into
// VarLen(20 000, 48–192) at P = 32 and bounds what they cost together:
// before the split slack and the in-place split, the sequence took 12.4
// rounds per batch and 164 words per inserted key, and block-split took
// 4 rounds in nearly every batch.
func TestInsertSequenceCost(t *testing.T) {
	const (
		p       = 32
		n       = 20000
		batches = 40
		batch   = 512
	)
	g := workload.New(1)
	keys := g.VarLen(n, 48, 192)
	sys := pim.NewSystem(p, pim.WithSeed(1))
	defer sys.Close()
	pt := New(sys, Config{HashSeed: 1})
	pt.Build(keys, g.Values(len(keys)))

	var rounds, words, ioTime int64
	for b := 0; b < batches; b++ {
		ins := g.VarLen(batch, 48, 192)
		tr := obs.Attach(sys, "seq")
		pt.Insert(ins, g.Values(len(ins)))
		tr.Detach()
		d := tr.Data()
		rounds += d.System.Rounds
		words += d.System.IOWords
		ioTime += d.System.IOTime
		split := 0
		for _, r := range d.Rounds {
			if strings.HasSuffix(r.Path, "/block-split") {
				split++
			}
		}
		if split > 2 {
			t.Errorf("batch %d: block-split took %d rounds, want ≤ 2", b, split)
		}
	}
	keysIn := float64(batches * batch)
	meanRounds := float64(rounds) / batches
	wordsPerKey := float64(words) / keysIn
	t.Logf("%.2f rounds per batch, %.1f words and %.2f IO time per inserted key", meanRounds, wordsPerKey, float64(ioTime)/keysIn)
	if meanRounds > 9.2 {
		t.Errorf("%.2f rounds per insert batch, want ≤ 9.2", meanRounds)
	}
	if wordsPerKey > 100 {
		t.Errorf("%.1f words per inserted key, want ≤ 100", wordsPerKey)
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
}
