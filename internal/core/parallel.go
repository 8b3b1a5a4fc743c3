package core

import (
	"runtime"
	"sync"

	"bstc/internal/dataset"
)

// ClassifyBatchParallel classifies every row of a test dataset using up to
// workers goroutines (≤ 0 means GOMAXPROCS), each on one contiguous chunk
// of rows; with one worker it runs inline. Evaluation is read-only on the
// trained tables and each query draws its scratch state from the per-table
// pool — a worker classifying a contiguous chunk keeps getting its own
// scratch back — so queries parallelize without locking or steady-state
// allocation. Results are returned in input order.
func (cl *Classifier) ClassifyBatchParallel(test *dataset.Bool, workers int) []int {
	n := test.NumSamples()
	out := make([]int, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i, row := range test.Rows {
			out[i] = cl.Classify(row)
		}
		return out
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = cl.Classify(test.Rows[i])
			}
		}()
	}
	wg.Wait()
	return out
}
