package main

import (
	"math"
	"testing"
)

// ascending returns 1, 2, …, n.
func ascending(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{199, 0.95, 0, false},
		{200, 0.95, 190, true},
		{999, 0.99, 0, false},
		{1000, 0.99, 990, true},
	} {
		got, ok := percentile(ascending(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestLatencyDetailPrintsCountAndOnlySupportedPercentiles(t *testing.T) {
	r := &result{Detail: map[string]float64{}}
	if p50, ok := latencyDetail(r, "x", ascending(100)); !ok || p50 != 50 {
		t.Fatalf("median = %v, %v; want 50, true", p50, ok)
	}
	if r.Detail["x.n"] != 100 {
		t.Errorf("sample count = %v, want 100", r.Detail["x.n"])
	}
	for name, want := range map[string]bool{"x.p50_ms": true, "x.p90_ms": true, "x.p95_ms": false, "x.p99_ms": false} {
		if _, ok := r.Detail[name]; ok != want {
			t.Errorf("%s reported = %v, want %v", name, ok, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		values []float64
		want   [3]float64
	}{
		{ascending(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3}, [3]float64{1.8125, 4.25, 8.0625}},
	} {
		q1, q2, q3 := quartiles(c.values)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.values, q1, q2, q3, c.want)
				break
			}
		}
	}
}
