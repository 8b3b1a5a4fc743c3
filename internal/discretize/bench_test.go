package discretize

import (
	"context"
	"testing"
)

// BenchmarkFitOC fits the entropy-MDL discretizer on the OC small 40%
// training split (101 samples, 379 genes) with one worker: the fit every
// study-oc test starts with.
func BenchmarkFitOC(b *testing.B) {
	train := smallSplit(b, "OC", 0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitWithWorkers(context.Background(), train, EntropyMDL, 1); err != nil {
			b.Fatal(err)
		}
	}
}
