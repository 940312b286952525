package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// numThreads is the process-wide kernel parallelism. It is an atomic so
// tests and long-running servers can change it while worker goroutines are
// in flight without a data race; a kernel reads it once at entry.
var numThreads atomic.Int32 // 0 == GOMAXPROCS

// SetThreads bounds the number of goroutines a single kernel invocation may
// fan out to. n <= 0 means "use GOMAXPROCS". Returns the previous setting.
//
// Results are bit-identical for every thread count: parallelism only
// partitions independent output rows / samples, never a reduction.
func SetThreads(n int) int { return int(numThreads.Swap(int32(n))) }

// Threads returns the resolved kernel parallelism.
func Threads() int {
	if n := int(numThreads.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor splits [0,n) into at most Threads() contiguous chunks and runs
// fn on each. With one thread (or one chunk) it runs inline, so the serial
// path allocates nothing and single-core hosts pay no goroutine overhead.
// Each worker receives a contiguous [lo,hi) range, letting callers hold one
// scratch slab per worker.
func parallelFor(n int, fn func(lo, hi int)) {
	t := Threads()
	if t > n {
		t = n
	}
	if t <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + t - 1) / t
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
