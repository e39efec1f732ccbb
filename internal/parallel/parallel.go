// Package parallel provides the CPU-side fork-join parallel-for the
// PIM Model assumes on the host (paper §2), and the one worker cap the
// simulator uses for host phases and module programs alike. The loops
// run on goroutines over MaxProcs() workers (read at each call); the
// grain size keeps scheduling overhead negligible for the batch sizes
// the index uses.
//
// The worker-count override is stored atomically, so SetMaxProcs is
// safe to call while other goroutines (concurrent benchmarks, parallel
// tests) are inside For or ForChunked, or running a pim round; each
// reads the cap once at entry.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxProcsV is the SetMaxProcs override of the worker cap; 0 means
// none. Read with maxProcs(), never directly.
var maxProcsV atomic.Int64

func maxProcs() int {
	if n := maxProcsV.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// MaxProcs returns the current worker-count cap. Exported so code that
// runs its own fork-join (pim rounds, and bitstr.ArgSort, which takes
// an explicit procs argument to stay dependency-free) honors the same
// cap.
func MaxProcs() int { return maxProcs() }

// SetMaxProcs overrides the worker count (n <= 0 restores the default,
// GOMAXPROCS) and returns the previous override, 0 when there was none,
// so SetMaxProcs(SetMaxProcs(n)) restores the caller's setting. It is
// safe for concurrent use; primitives already executing finish with the
// cap they observed at entry.
func SetMaxProcs(n int) int {
	return int(maxProcsV.Swap(int64(max(n, 0))))
}

// minGrain is the smallest chunk worth shipping to another goroutine.
const minGrain = 256

// For runs body(i) for every i in [0, n) across workers. Bodies must be
// independent; the call returns when all have completed.
func For(n int, body func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and runs body(lo, hi)
// for each chunk in parallel. Prefer it over For when the body is tiny.
func ForChunked(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := maxProcs()
	if workers > (n+minGrain-1)/minGrain {
		workers = (n + minGrain - 1) / minGrain
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
