// Package parallel provides the CPU-side parallel primitives the PIM
// Model assumes on the host (paper §2): a fork-join parallel-for,
// parallel reduction, and parallel prefix sums (scan, [12]). They are
// realized with goroutines over runtime.GOMAXPROCS workers (read at
// each call); grain sizes keep scheduling overhead negligible for the
// batch sizes the index uses.
//
// The worker-count override is stored atomically, so SetMaxProcs is
// safe to call while other goroutines (concurrent benchmarks, parallel
// tests) are inside For/Reduce/Scan; each call site reads the cap once
// at entry.
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

// MaxProcs returns the current worker-count cap. Exported so packages
// that run their own fork-join code (bitstr.ArgSort takes an explicit
// procs argument to stay dependency-free) can honor the same cap.
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

// Map applies f to every element of in, in parallel, into a new slice.
func Map[T, U any](in []T, f func(T) U) []U {
	out := make([]U, len(in))
	For(len(in), func(i int) { out[i] = f(in[i]) })
	return out
}

// Reduce combines xs with the associative op, returning id for empty
// input. The reduction tree is two-level: per-chunk sequential folds,
// then a sequential fold of the (few) partials.
func Reduce[T any](xs []T, id T, op func(a, b T) T) T {
	n := len(xs)
	if n == 0 {
		return id
	}
	workers := maxProcs()
	if workers > (n+minGrain-1)/minGrain {
		workers = (n + minGrain - 1) / minGrain
	}
	if workers <= 1 {
		acc := id
		for _, x := range xs {
			acc = op(acc, x)
		}
		return acc
	}
	chunk := (n + workers - 1) / workers
	partial := make([]T, 0, workers)
	type idxAcc struct {
		i int
		v T
	}
	ch := make(chan idxAcc, workers)
	cnt := 0
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		cnt++
		go func(w, lo, hi int) {
			acc := id
			for i := lo; i < hi; i++ {
				acc = op(acc, xs[i])
			}
			ch <- idxAcc{w, acc}
		}(w, lo, hi)
	}
	ordered := make([]T, cnt)
	for i := 0; i < cnt; i++ {
		r := <-ch
		ordered[r.i] = r.v
	}
	partial = append(partial, ordered...)
	acc := id
	for _, v := range partial {
		acc = op(acc, v)
	}
	return acc
}

// MaxInt returns the maximum of xs, or 0 for empty input.
func MaxInt(xs []int) int {
	return Reduce(xs, 0, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
}

// SumInt returns the sum of xs.
func SumInt(xs []int) int {
	return Reduce(xs, 0, func(a, b int) int { return a + b })
}

// Scan computes the exclusive prefix "sum" of xs under the associative
// op with identity id: out[i] = op(xs[0], …, xs[i-1]), and returns the
// total as well. It is the classic two-pass block scan [12].
func Scan[T any](xs []T, id T, op func(a, b T) T) (out []T, total T) {
	n := len(xs)
	out = make([]T, n)
	if n == 0 {
		return out, id
	}
	workers := maxProcs()
	if workers > (n+minGrain-1)/minGrain {
		workers = (n + minGrain - 1) / minGrain
	}
	if workers <= 1 {
		acc := id
		for i, x := range xs {
			out[i] = acc
			acc = op(acc, x)
		}
		return out, acc
	}
	chunk := (n + workers - 1) / workers
	sums := make([]T, workers)
	var wg sync.WaitGroup
	// Pass 1: per-chunk totals.
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			sums[w] = id
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := id
			for i := lo; i < hi; i++ {
				acc = op(acc, xs[i])
			}
			sums[w] = acc
		}(w, lo, hi)
	}
	wg.Wait()
	// Sequential scan of the chunk totals.
	offsets := make([]T, workers)
	acc := id
	for w := 0; w < workers; w++ {
		offsets[w] = acc
		acc = op(acc, sums[w])
	}
	total = acc
	// Pass 2: per-chunk exclusive scans seeded by the offsets.
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := offsets[w]
			for i := lo; i < hi; i++ {
				out[i] = acc
				acc = op(acc, xs[i])
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return out, total
}

// ScanInt is Scan specialized to integer addition.
func ScanInt(xs []int) (out []int, total int) {
	return Scan(xs, 0, func(a, b int) int { return a + b })
}

// Filter returns the elements of xs for which keep is true, preserving
// order, using a count-scan-scatter pattern.
func Filter[T any](xs []T, keep func(T) bool) []T {
	n := len(xs)
	flags := make([]int, n)
	For(n, func(i int) {
		if keep(xs[i]) {
			flags[i] = 1
		}
	})
	pos, total := ScanInt(flags)
	out := make([]T, total)
	For(n, func(i int) {
		if flags[i] == 1 {
			out[pos[i]] = xs[i]
		}
	})
	return out
}

// FlattenInto concatenates the groups in parallel via a scan over sizes.
func FlattenInto[T any](groups [][]T) []T {
	sizes := make([]int, len(groups))
	For(len(groups), func(i int) { sizes[i] = len(groups[i]) })
	off, total := ScanInt(sizes)
	out := make([]T, total)
	For(len(groups), func(i int) { copy(out[off[i]:], groups[i]) })
	return out
}
