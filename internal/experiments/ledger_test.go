package experiments

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"github.com/pimlab/pimtrie/internal/parallel"
)

// ledgerPath holds every table's JSON at ledgerScale. Regenerate it —
// only when a change is meant to move a model number — with
//
//	go run ./cmd/pimbench -p 16 -n 2000 -batch 256 -json internal/experiments/testdata/ledger_small.json
const ledgerPath = "testdata/ledger_small.json"

var ledgerScale = Scale{P: 16, N: 2000, Batch: 256, Seed: 1}

// TestLedgerSmall pins every experiment's model numbers: the JSON of
// every table at a small scale must match the checked-in ledger byte for
// byte, with the one worker cap at 1 (everything inline) and at 4 (the
// pooled module executor).
func TestLedgerSmall(t *testing.T) {
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			defer parallel.SetMaxProcs(parallel.SetMaxProcs(par))
			var tables []Table
			for _, e := range Registry {
				tables = append(tables, e.Run(ledgerScale))
			}
			var got bytes.Buffer
			if err := WriteResultsJSON(&got, tables); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("ledger differs from %s at parallelism %d (first difference at byte %d); "+
					"regenerate it only if the change is meant to move a model number",
					ledgerPath, par, firstDiff(got.Bytes(), want))
			}
		})
	}
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
