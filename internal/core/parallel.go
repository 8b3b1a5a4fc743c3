package core

import (
	"runtime"
	"sync"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// ClassifyBatchParallel classifies every row of a test dataset using up to
// workers goroutines (≤ 0 means GOMAXPROCS). Evaluation is read-only on the
// trained tables and each query draws its scratch state from the per-table
// pool — a worker classifying a contiguous chunk keeps getting its own
// scratch back — so queries parallelize without locking or steady-state
// allocation. Results are returned in input order.
func (cl *Classifier) ClassifyBatchParallel(test *dataset.Bool, workers int) []int {
	out := make([]int, test.NumSamples())
	parallelChunks(len(out), workers, func(i int) { out[i] = cl.Classify(test.Rows[i]) })
	return out
}

// DecideBatchParallel is the batch form of Decide: one evaluation pass per
// row yields both its class and its confidence, in input order, spread over
// up to workers goroutines exactly like ClassifyBatchParallel. Serving
// answers every micro-batch with it.
func (cl *Classifier) DecideBatchParallel(rows []*bitset.Set, workers int) (classes []int, confidences []float64) {
	classes = make([]int, len(rows))
	confidences = make([]float64, len(rows))
	parallelChunks(len(rows), workers, func(i int) { classes[i], confidences[i] = cl.Decide(rows[i]) })
	return classes, confidences
}

// parallelChunks calls fn(i) for every i in [0, n), splitting the range into
// one contiguous chunk per worker (≤ 0 workers means GOMAXPROCS). With one
// worker it runs inline.
func parallelChunks(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
