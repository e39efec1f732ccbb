package parallel

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 10_000} {
		var hits int64
		seen := make([]int32, n)
		For(n, func(i int) {
			atomic.AddInt64(&hits, 1)
			atomic.AddInt32(&seen[i], 1)
		})
		if hits != int64(n) {
			t.Fatalf("n=%d: %d calls", n, hits)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	n := 5000
	covered := make([]int32, n)
	ForChunked(n, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestForSingleWorkerFallback(t *testing.T) {
	old := SetMaxProcs(1)
	defer SetMaxProcs(old)
	sum := 0
	For(1000, func(i int) { sum += i }) // safe: single worker
	if sum != 999*1000/2 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestDefaultFollowsGOMAXPROCS pins the default worker cap to
// GOMAXPROCS, read at call time: at GOMAXPROCS 1 with no override,
// ForChunked runs its body once, inline, over the whole range.
func TestDefaultFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer SetMaxProcs(SetMaxProcs(0))
	if got := MaxProcs(); got != 1 {
		t.Fatalf("MaxProcs() = %d at GOMAXPROCS 1, want 1", got)
	}
	const n = 10 * minGrain
	var mu sync.Mutex
	var calls [][2]int
	ForChunked(n, func(lo, hi int) {
		mu.Lock()
		calls = append(calls, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(calls) != 1 || calls[0] != [2]int{0, n} {
		t.Fatalf("ForChunked(%d) bodies %v, want one (0, %d)", n, calls, n)
	}
	SetMaxProcs(3)
	if got := MaxProcs(); got != 3 {
		t.Fatalf("MaxProcs() = %d after SetMaxProcs(3)", got)
	}
	SetMaxProcs(0)
	if got := MaxProcs(); got != 1 {
		t.Fatalf("MaxProcs() = %d after SetMaxProcs(0), want GOMAXPROCS 1", got)
	}
}

func TestMap(t *testing.T) {
	in := make([]int, 3000)
	for i := range in {
		in[i] = i
	}
	out := Map(in, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestReduceMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(5000)
		xs := make([]int, n)
		want := 0
		for i := range xs {
			xs[i] = r.Intn(100) - 50
			want += xs[i]
		}
		if got := SumInt(xs); got != want {
			t.Fatalf("SumInt = %d, want %d", got, want)
		}
	}
}

func TestMaxInt(t *testing.T) {
	if MaxInt(nil) != 0 {
		t.Error("MaxInt(nil) != 0")
	}
	xs := make([]int, 4000)
	for i := range xs {
		xs[i] = i % 977
	}
	xs[3123] = 99999
	if got := MaxInt(xs); got != 99999 {
		t.Fatalf("MaxInt = %d", got)
	}
}

func TestScanIntProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]int, len(raw))
		for i, v := range raw {
			xs[i] = int(v)
		}
		out, total := ScanInt(xs)
		acc := 0
		for i, x := range xs {
			if out[i] != acc {
				return false
			}
			acc += x
		}
		return total == acc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScanLarge(t *testing.T) {
	n := 100_000
	xs := make([]int, n)
	for i := range xs {
		xs[i] = 1
	}
	out, total := ScanInt(xs)
	if total != n {
		t.Fatalf("total = %d", total)
	}
	for i := 0; i < n; i += 997 {
		if out[i] != i {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestScanNonCommutativeOp(t *testing.T) {
	// String concatenation is associative but not commutative; the block
	// scan must still produce left-to-right results.
	xs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	out, total := Scan(xs, "", func(a, b string) string { return a + b })
	want := ""
	for i, x := range xs {
		if out[i] != want {
			t.Fatalf("out[%d] = %q, want %q", i, out[i], want)
		}
		want += x
	}
	if total != "abcdefgh" {
		t.Fatalf("total = %q", total)
	}
}

func TestFilter(t *testing.T) {
	xs := make([]int, 10_000)
	for i := range xs {
		xs[i] = i
	}
	out := Filter(xs, func(x int) bool { return x%3 == 0 })
	if len(out) != (len(xs)+2)/3 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestFlattenInto(t *testing.T) {
	groups := [][]int{{1, 2}, nil, {3}, {}, {4, 5, 6}}
	got := FlattenInto(groups)
	want := []int{1, 2, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
}

func BenchmarkScan1M(b *testing.B) {
	xs := make([]int, 1<<20)
	for i := range xs {
		xs[i] = i & 7
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanInt(xs)
	}
}

func BenchmarkParallelFor1M(b *testing.B) {
	dst := make([]int, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(len(dst), func(j int) { dst[j] = j * 2 })
	}
}

func TestMergeSortMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := r.Intn(20000)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = r.Intn(1000)
		}
		want := append([]int(nil), xs...)
		MergeSort(xs, func(a, b int) bool { return a < b })
		slices.Sort(want)
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestMergeSortStable(t *testing.T) {
	type kv struct{ k, seq int }
	r := rand.New(rand.NewSource(8))
	xs := make([]kv, 30000)
	for i := range xs {
		xs[i] = kv{k: r.Intn(50), seq: i}
	}
	MergeSort(xs, func(a, b kv) bool { return a.k < b.k })
	for i := 1; i < len(xs); i++ {
		if xs[i-1].k == xs[i].k && xs[i-1].seq > xs[i].seq {
			t.Fatalf("stability violated at %d", i)
		}
		if xs[i-1].k > xs[i].k {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func BenchmarkMergeSort100k(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	base := make([]uint64, 100_000)
	for i := range base {
		base[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]uint64(nil), base...)
		MergeSort(cp, func(a, b uint64) bool { return a < b })
	}
}
