package core

import (
	"math/rand"
	"testing"
)

// allocsWithRetry measures steady-state allocations, retrying a few times
// because the GC may clear the scratch sync.Pool mid-measurement and charge
// the rebuild to the run. Any clean attempt proves the path is alloc-free.
func allocsWithRetry(t *testing.T, want float64, f func()) float64 {
	t.Helper()
	var got float64
	for attempt := 0; attempt < 3; attempt++ {
		got = testing.AllocsPerRun(100, f)
		if got <= want {
			return got
		}
	}
	return got
}

// TestEvaluateSteadyStateAllocs pins the BSTCE hot path at zero steady-state
// allocations: EvaluateValue, Classify (the single-pass Decide, with its
// stack buffer of values), and ValuesInto must all run entirely out of
// pooled scratch once warm.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so pooled paths allocate")
	}
	r := rand.New(rand.NewSource(11))
	d := randomBoolDataset(r, 20, 30, 2)
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := randomRow(r, d.NumGenes())
	tb := cl.Tables[0]
	vals := make([]float64, len(cl.Tables))

	// Warm the pools before measuring.
	_ = tb.EvaluateValue(q, cl.Opts)
	_ = cl.Classify(q)

	if got := allocsWithRetry(t, 0, func() { _ = tb.EvaluateValue(q, cl.Opts) }); got != 0 {
		t.Errorf("EvaluateValue allocates %v per run, want 0", got)
	}
	if got := allocsWithRetry(t, 0, func() { _ = cl.Classify(q) }); got != 0 {
		t.Errorf("Classify allocates %v per run, want 0", got)
	}
	if got := allocsWithRetry(t, 0, func() { cl.ValuesInto(vals, q) }); got != 0 {
		t.Errorf("ValuesInto allocates %v per run, want 0", got)
	}
	// Evaluate keeps exactly one allocation: the ColumnValues slice it hands
	// to the caller.
	if got := allocsWithRetry(t, 1, func() { _ = tb.Evaluate(q, cl.Opts) }); got > 1 {
		t.Errorf("Evaluate allocates %v per run, want <= 1", got)
	}
}
