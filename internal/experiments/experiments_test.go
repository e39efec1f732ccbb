package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tiny is a fast scale for CI-style runs; shapes must already hold.
var tiny = Scale{P: 8, N: 2000, Batch: 256, Seed: 1}

func cell(t *testing.T, tb Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tb.Rows[row][col], "(scaled)")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tb.ID, row, col, tb.Rows[row][col])
	}
	return v
}

func TestSpaceTableShapes(t *testing.T) {
	tb := SpaceTable(tiny)
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	// At l=64, dist-xfast must be much larger than pim-trie (O(n·l) vs
	// O(n + L/w)).
	for r := range tb.Rows {
		if tb.Rows[r][1] != "64" {
			continue
		}
		pt := cell(t, tb, r, 2)
		xf := cell(t, tb, r, 4)
		if xf < 2.5*pt {
			t.Fatalf("x-fast space %v not ≫ pim-trie %v", xf, pt)
		}
	}
	// Space grows roughly linearly with n at fixed l: last/first ≈ 8.
	first, last := cell(t, tb, 0, 2), cell(t, tb, len(tb.Rows)-2, 2)
	if last < 3*first {
		t.Fatalf("pim-trie space not scaling with n: %v vs %v", first, last)
	}
}

func TestRoundsLCPShapes(t *testing.T) {
	tb := RoundsLCP(tiny)
	n := len(tb.Rows)
	// PIM-trie rounds flat in l: max/min ≤ 3.
	ptMin, ptMax := 1e18, 0.0
	for r := 0; r < n; r++ {
		v := cell(t, tb, r, 1)
		if v < ptMin {
			ptMin = v
		}
		if v > ptMax {
			ptMax = v
		}
	}
	if ptMax > 3*ptMin {
		t.Fatalf("pim-trie rounds not flat in l: min %v max %v", ptMin, ptMax)
	}
	// DistRadix rounds grow with l: last ≥ 4× first (l grows 16×).
	if cell(t, tb, n-1, 2) < 4*cell(t, tb, 0, 2) {
		t.Fatalf("dist-radix rounds did not grow with l")
	}
	// And dist-radix at the longest l far exceeds pim-trie.
	if cell(t, tb, n-1, 2) < 5*cell(t, tb, n-1, 1) {
		t.Fatalf("dist-radix not clearly worse at long keys")
	}
}

func TestRoundsVsPShapes(t *testing.T) {
	tb := RoundsVsP(tiny)
	n := len(tb.Rows)
	// Rounds must not grow with P by more than a small factor.
	if cell(t, tb, n-1, 1) > 3*cell(t, tb, 0, 1) {
		t.Fatalf("rounds grew with P: %v -> %v", cell(t, tb, 0, 1), cell(t, tb, n-1, 1))
	}
	// IO time shrinks as P grows (more modules share the batch).
	if cell(t, tb, n-1, 2) > cell(t, tb, 0, 2) {
		t.Fatalf("io-time did not shrink with P")
	}
}

func TestRoundsUpdateShapes(t *testing.T) {
	tb := RoundsUpdate(tiny)
	n := len(tb.Rows)
	// PIM-trie insert rounds flat-ish in l.
	if cell(t, tb, n-1, 1) > 4*cell(t, tb, 0, 1) {
		t.Fatalf("pim-trie insert rounds grew with l")
	}
	// DistRadix insert rounds far larger at long keys.
	if cell(t, tb, n-1, 3) < 10*cell(t, tb, n-1, 1) {
		t.Fatalf("dist-radix insert not clearly worse")
	}
}

func TestRoundsSubtreeShapes(t *testing.T) {
	tb := RoundsSubtree(tiny)
	n := len(tb.Rows)
	// PIM-trie answers large subtrees in far fewer rounds than the
	// pointer-chasing baseline.
	if cell(t, tb, n-1, 2) < 2*cell(t, tb, n-1, 1) {
		t.Fatalf("subtree rounds: pim-trie %v vs dist-radix %v", cell(t, tb, n-1, 1), cell(t, tb, n-1, 2))
	}
}

func TestCommPerOpShapes(t *testing.T) {
	tb := CommPerOp(tiny)
	n := len(tb.Rows)
	// dist-radix words/op grow ~8× faster than pim-trie's in l.
	ptGrowth := cell(t, tb, n-1, 1) / cell(t, tb, 0, 1)
	drGrowth := cell(t, tb, n-1, 3) / cell(t, tb, 0, 3)
	if drGrowth < 1.5*ptGrowth {
		t.Fatalf("comm growth: pim-trie ×%.1f, dist-radix ×%.1f — expected radix to grow faster", ptGrowth, drGrowth)
	}
	// At the longest keys dist-radix must pay more words/op than pim-trie.
	if cell(t, tb, n-1, 3) < 2*cell(t, tb, n-1, 1) {
		t.Fatalf("dist-radix comm not clearly worse at long keys")
	}
}

func TestCommSubtreeShapes(t *testing.T) {
	tb := CommSubtree(tiny)
	n := len(tb.Rows)
	// Communication grows with the result size.
	if cell(t, tb, n-1, 1) < 2*cell(t, tb, 0, 1) {
		t.Fatalf("subtree comm did not grow with the result")
	}
}

func TestSkewBalanceShapes(t *testing.T) {
	tb := SkewBalance(tiny)
	var ptWorst, rpWorst float64
	for r := range tb.Rows {
		if v := cell(t, tb, r, 1); v > ptWorst {
			ptWorst = v
		}
		if v := cell(t, tb, r, 2); v > rpWorst {
			rpWorst = v
		}
	}
	// PIM-trie stays balanced under every workload; range partitioning
	// collapses on at least one (point/range attack).
	if ptWorst > float64(tiny.P)/2 {
		t.Fatalf("pim-trie worst balance %v — not skew resistant", ptWorst)
	}
	if rpWorst < 2*ptWorst {
		t.Fatalf("range partitioning did not degrade under skew (rp %v vs pt %v)", rpWorst, ptWorst)
	}
	// Makespan: a skewed batch (every row after the uniform row 0) asks
	// for fewer distinct keys than the uniform one, so PIM-trie's busiest
	// module moves no more words for it, and fewer than range
	// partitioning's.
	for r := 1; r < len(tb.Rows); r++ {
		name, pt := tb.Rows[r][0], cell(t, tb, r, 4)
		if pt > cell(t, tb, 0, 4) {
			t.Fatalf("%s: pim-trie io-time %v above the uniform batch's %v", name, pt, cell(t, tb, 0, 4))
		}
		if pt >= cell(t, tb, r, 5) {
			t.Fatalf("%s: pim-trie io-time %v not below range partitioning's %v", name, pt, cell(t, tb, r, 5))
		}
	}
}

func TestSkewedDataBalanceShapes(t *testing.T) {
	tb := SkewedDataBalance(tiny)
	n := len(tb.Rows)
	// PIM-trie rounds stay flat as the spine deepens; dist-radix rounds
	// explode.
	if cell(t, tb, n-1, 3) > 4*cell(t, tb, 0, 3) {
		t.Fatalf("pim-trie rounds grew on deep spine")
	}
	if cell(t, tb, n-1, 4) < 4*cell(t, tb, 0, 4) {
		t.Fatalf("dist-radix rounds did not grow on deep spine")
	}
}

func TestTheoremBoundsShapes(t *testing.T) {
	tb := TheoremBounds(tiny)
	for r := range tb.Rows {
		if v := cell(t, tb, r, 4); v > 20 {
			t.Fatalf("seed %d: P·io-time/io-words = %v — not PIM-balanced", r+1, v)
		}
		if v := cell(t, tb, r, 1); v > 20 {
			t.Fatalf("seed %d: %v rounds", r+1, v)
		}
	}
}

func TestAblationTablesRun(t *testing.T) {
	for _, tb := range []Table{AblationBlockSize(tiny), AblationPushPull(tiny), AblationHashWidth(tiny), AblationRegionSize(tiny)} {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s empty", tb.ID)
		}
		if out := tb.Format(); !strings.Contains(out, tb.ID) {
			t.Fatalf("%s Format broken", tb.ID)
		}
	}
	// Narrow widths must record false hits; full width none.
	tb := AblationHashWidth(tiny)
	if cell(t, tb, 0, 1) == 0 {
		t.Fatal("12-bit hash produced no false hits")
	}
	if cell(t, tb, len(tb.Rows)-1, 1) != 0 {
		t.Fatal("61-bit hash produced false hits")
	}
	// Region-size trade-off: smaller K_MB ⇒ more regions ⇒ bigger master.
	rs := AblationRegionSize(tiny)
	if cell(t, rs, 0, 2) <= cell(t, rs, len(rs.Rows)-1, 2) {
		t.Fatalf("master did not shrink with K_MB: %v vs %v", cell(t, rs, 0, 2), cell(t, rs, len(rs.Rows)-1, 2))
	}
}

func TestRegionProbeByKeyLengthShapes(t *testing.T) {
	tb := RegionProbeByKeyLength(tiny)
	if len(tb.Rows) != 4 {
		t.Fatalf("expected 4 key lengths, got %d", len(tb.Rows))
	}
	// Same (oracle) answers at every length, and rounds flat in l.
	for r, row := range tb.Rows {
		if row[6] != "yes" {
			t.Fatalf("l=%s diverged from the oracle", row[0])
		}
		if cell(t, tb, r, 5) != cell(t, tb, 0, 5) {
			t.Fatalf("rounds not flat in l: %v at l=%s, %v at l=%s", cell(t, tb, r, 5), row[0], cell(t, tb, 0, 5), tb.Rows[0][0])
		}
	}
}

func TestFaultRecoveryShapes(t *testing.T) {
	tb := FaultRecovery(tiny)
	if len(tb.Rows) != 4 {
		t.Fatalf("expected 4 scenarios, got %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("scenario %q diverged from the fault-free oracle", row[0])
		}
	}
	// The fault-free row must report no injected faults and no repair
	// cost; every crash scenario must report recoveries with nonzero
	// rounds and IO time.
	if cell(t, tb, 0, 1) != 0 || cell(t, tb, 0, 6) != 0 {
		t.Fatalf("fault-free row reports faults/repair: %v", tb.Rows[0])
	}
	for r := 1; r < len(tb.Rows); r++ {
		if cell(t, tb, r, 1) < 1 {
			t.Fatalf("scenario %q injected no crash", tb.Rows[r][0])
		}
		if cell(t, tb, r, 4) < 1 || cell(t, tb, r, 6) <= 0 || cell(t, tb, r, 7) <= 0 {
			t.Fatalf("scenario %q has uncosted recovery: %v", tb.Rows[r][0], tb.Rows[r])
		}
	}
}
