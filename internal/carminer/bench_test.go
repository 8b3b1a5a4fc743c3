package carminer

import (
	"context"
	"math/rand"
	"testing"

	"bstc/internal/dataset"
)

// benchDataset is the fixed workload for the Top-k hot-path benchmark: a
// dense random two-class matrix whose row enumeration visits thousands of
// nodes without hitting the exponential wall, so allocs/op reflects the
// per-node cost the paper's Tables 4 and 6 measure.
func benchDataset() *dataset.Bool {
	r := rand.New(rand.NewSource(7))
	return randomBool(r, 24, 40, 2)
}

func BenchmarkTopK(b *testing.B) {
	d := benchDataset()
	cfg := TopKConfig{MinSupport: 0.3, K: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKCoveringRuleGroups(context.Background(), d, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKApprox measures the approximate mode's per-run cost on the
// exact benchmark's workload (sketch maintenance included), for comparison
// against BenchmarkTopK.
func BenchmarkTopKApprox(b *testing.B) {
	d := benchDataset()
	cfg := TopKConfig{MinSupport: 0.3, K: 5, Approx: ApproxConfig{Epsilon: 0.1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKCoveringRuleGroups(context.Background(), d, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
