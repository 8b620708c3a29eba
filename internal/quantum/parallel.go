package quantum

import (
	"runtime"
	"sync"
)

// Parallelism knobs. Element-wise kernels (gate applications, the
// collapse pass) fan out across goroutines once a state reaches
// parallelThreshold amplitudes. The partition is by contiguous index
// range aligned to the kernel's outer block stride, and every worker runs
// the identical per-element multiply-add sequence, so the result is
// bit-identical to the serial path at any worker count — parallelism
// never enters a floating-point reduction (see probPair). Vars rather
// than consts so the property tests can force the parallel path on
// states small enough to cross-check against the reference kernels.
var (
	parallelThreshold = 1 << 20
	parallelWorkers   = runtime.GOMAXPROCS(0)
)

// setParallel overrides the parallel-path knobs and returns a restore
// function; tests force the parallel path on small states with it.
func setParallel(threshold, workers int) func() {
	oldT, oldW := parallelThreshold, parallelWorkers
	parallelThreshold, parallelWorkers = threshold, workers
	return func() { parallelThreshold, parallelWorkers = oldT, oldW }
}

// operands is everything an element-wise kernel reads besides its index
// range. A kernel takes it by value and captures nothing: a closure over
// the same variables would escape through forSpan's goroutines and cost
// every gate an allocation, parallel or not.
type operands struct {
	amp        []complex128
	h, l       int        // block half-strides: the (higher) qubit's, the lower one's
	a, b, c, d complex128 // matrix entries, or the scalars a kernel names
}

// forSpan runs fn over o.amp split into stride-aligned spans. Small
// spans (or single-worker configs) run serially in place; large ones are
// partitioned into contiguous block ranges, one goroutine per worker.
// fn must be safe for concurrent invocation on disjoint ranges.
func forSpan(o operands, stride int, fn func(o operands, lo, hi int)) {
	n := len(o.amp)
	workers := parallelWorkers
	blocks := n / stride
	if n < parallelThreshold || workers <= 1 || blocks <= 1 {
		fn(o, 0, n)
		return
	}
	if workers > blocks {
		workers = blocks
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := blocks * w / workers * stride
		hi := blocks * (w + 1) / workers * stride
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(o, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
