package core

// Allocation regression tests for the batch host path. The per-batch
// scratch is pooled on the PIMTrie, so a steady-state batch should
// allocate proportionally to the batch itself (query trie nodes, result
// slices, per-piece task closures) — a few dozen objects per key —
// never to the phases it runs, and a one-key call a fixed few dozen
// whatever the index served before. The counts repeat to within a few
// objects per batch (AllocsPerRun pins GOMAXPROCS to 1), so the bounds
// sit just above them: close enough that one allocation per probe task
// — e.g. a reply taken from the heap rather than the reply arena, which
// cost 14.1 objects per key and 64 per one-key Get (regrown from nil by
// doubling: 14.9 and 67) — trips them. Under the race
// detector sync.Pool drops a quarter of its Puts on purpose, so only the
// old loose bounds apply there.

import (
	"math/rand"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// Observed (see the test log): 10.1 objects per key for the LCP batch,
// 51 for a one-key Get — the query trie and its hashes, three rounds'
// response slices and task closures, the result slices. The block round
// charges a piece's work from its report, so it allocates no accounting
// closure per piece.
func allocBound(tight, underRace float64) float64 {
	if raceEnabled {
		return underRace
	}
	return tight
}

func TestLCPBatchAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation calibration is not meaningful under -short")
	}
	r := rand.New(rand.NewSource(17))
	pt, _ := newTestTrie(8, Config{})
	const nKeys = 4096
	keys := make([]bitstr.String, nKeys)
	vals := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = randomKey(r, 160)
		vals[i] = uint64(i)
	}
	pt.Build(keys, vals)

	const batch = 256
	queries := make([]bitstr.String, batch)
	for i := range queries {
		k := keys[r.Intn(nKeys)]
		cut := r.Intn(k.Len() + 1)
		queries[i] = k.Prefix(cut)
	}
	// Warm the pooled scratch: the first batches grow arenas to their
	// steady-state size.
	for i := 0; i < 3; i++ {
		pt.LCP(queries)
	}
	perRun := testing.AllocsPerRun(5, func() {
		pt.LCP(queries)
	})
	perKey := perRun / batch
	t.Logf("LCP batch: %.0f allocs (%.1f per key)", perRun, perKey)
	if bound := allocBound(10.4, 40); perKey > bound {
		t.Fatalf("LCP host path allocates %.0f objects per batch (%.1f per key); pooled scratch bound is %.1f per key", perRun, perKey, bound)
	}
}

func TestOneKeyGetAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation calibration is not meaningful under -short")
	}
	r := rand.New(rand.NewSource(23))
	pt, _ := newTestTrie(8, Config{})
	const nKeys = 4096
	keys := make([]bitstr.String, nKeys)
	vals := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = randomKey(r, 160)
		vals[i] = uint64(i)
	}
	pt.Build(keys, vals)
	// A large batch first: the one-key path must not pay for it, and it
	// grows every pooled buffer past what one key needs.
	pt.Get(keys)
	i := 0
	perRun := testing.AllocsPerRun(200, func() {
		pt.Get(keys[i%nKeys : i%nKeys+1])
		i++
	})
	t.Logf("one-key Get: %.1f allocs", perRun)
	if bound := allocBound(52, 100); perRun > bound {
		t.Fatalf("one-key Get allocates %.1f objects; bound is %.0f", perRun, bound)
	}
}
