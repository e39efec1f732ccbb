package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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

func BenchmarkParallelFor1M(b *testing.B) {
	dst := make([]int, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(len(dst), func(j int) { dst[j] = j * 2 })
	}
}
