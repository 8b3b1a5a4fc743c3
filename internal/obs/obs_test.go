package obs

import (
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("peak")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.SetMax(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 7999 {
		t.Errorf("gauge peak = %d, want 7999", got)
	}
	g.SetMax(5) // lower value must not win
	if got := g.Value(); got != 7999 {
		t.Errorf("gauge lowered to %d by SetMax(5)", got)
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name should return the same counter")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("same name should return the same gauge")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Error("same name should return the same histogram")
	}
}

func TestNilRegistryIsNoOpWithZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.SetMax(2)
		h.Record(7)
		_ = c.Value()
		_ = g.Value()
		_ = h.Quantile(0.5)
	})
	if allocs != 0 {
		t.Errorf("no-op metrics allocated %v per run, want 0", allocs)
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Hists != nil {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	// Obtaining metrics from the nil registry must not allocate either.
	allocs = testing.AllocsPerRun(1000, func() {
		r.Counter("x").Inc()
	})
	if allocs != 0 {
		t.Errorf("nil registry Counter() allocated %v per run, want 0", allocs)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var empty *Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %d", got)
	}
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	h.Record(0)
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q=0 over {0} = %d, want 0", got)
	}
	h2 := &Histogram{}
	h2.Record(100)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h2.Quantile(q); got != 100 {
			t.Errorf("single-value histogram quantile(%v) = %d, want 100 (clamped to max)", q, got)
		}
	}
	h3 := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h3.Record(v)
	}
	p50, p99 := h3.Quantile(0.5), h3.Quantile(0.99)
	if p50 > p99 {
		t.Errorf("p50 %d > p99 %d", p50, p99)
	}
	// Bucket upper bounds: p50 of 1..1000 lies in [500, 1023]→ clamped ≤ max.
	if p50 < 500 || p50 > 1000 {
		t.Errorf("p50 = %d outside [500,1000]", p50)
	}
	if got := h3.Quantile(1); got != 1000 {
		t.Errorf("q=1 = %d, want max 1000", got)
	}
	if h3.Count() != 1000 || h3.Max() != 1000 {
		t.Errorf("count/max = %d/%d", h3.Count(), h3.Max())
	}
	h3.Record(-5) // negative clamps to zero, never panics
	if h3.Count() != 1001 {
		t.Error("negative record not counted")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Record(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if h.Max() != 999 {
		t.Errorf("max = %d, want 999", h.Max())
	}
}

func TestSnapshotDeltaFrom(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(10)
	r.Counter("b").Add(5)
	r.Gauge("peak").SetMax(7)
	r.Histogram("h").Record(100)
	before := r.Snapshot()
	r.Counter("a").Add(3)
	r.Gauge("peak").SetMax(9)
	r.Histogram("h").Record(200)
	d := r.Snapshot().DeltaFrom(before)
	if d.Counters["a"] != 3 {
		t.Errorf("counter a delta = %d, want 3", d.Counters["a"])
	}
	if _, ok := d.Counters["b"]; ok {
		t.Error("unchanged counter b should be dropped from the delta")
	}
	if d.Gauges["peak"] != 9 {
		t.Errorf("gauge delta keeps current value, got %d", d.Gauges["peak"])
	}
	if h := d.Hists["h"]; h.Count != 1 || h.Sum != 200 {
		t.Errorf("hist delta = %+v, want count 1 sum 200", h)
	}
	flat := d.Flat()
	if flat["a"] != 3 || flat["peak"] != 9 {
		t.Errorf("flat = %v", flat)
	}
	names := d.SortedNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "peak" {
		t.Errorf("sorted names = %v", names)
	}
}

// TestSnapshotDeltaFromAsymmetric pins the semantics for metrics present
// on only one side: a metric that exists only in `before` (e.g. after a
// registry swap) is silently dropped — DeltaFrom walks the current
// snapshot's series — while a metric born after `before` reports its full
// value as the delta.
func TestSnapshotDeltaFromAsymmetric(t *testing.T) {
	r := NewRegistry()
	r.Counter("old").Add(10)
	r.Histogram("hOld").Record(1)
	before := r.Snapshot()

	r2 := NewRegistry() // "old"/"hOld" gone, "fresh"/"hNew" newborn
	r2.Counter("fresh").Add(4)
	r2.Gauge("g").Set(6)
	h := r2.Histogram("hNew")
	h.Record(10)
	h.Record(30)
	d := r2.Snapshot().DeltaFrom(before)

	if _, ok := d.Counters["old"]; ok {
		t.Error("before-only counter must be dropped from the delta")
	}
	if _, ok := d.Hists["hOld"]; ok {
		t.Error("before-only histogram must be dropped from the delta")
	}
	if d.Counters["fresh"] != 4 {
		t.Errorf("after-only counter delta = %d, want full value 4", d.Counters["fresh"])
	}
	if d.Gauges["g"] != 6 {
		t.Errorf("after-only gauge = %d, want 6", d.Gauges["g"])
	}
	if hd := d.Hists["hNew"]; hd.Count != 2 || hd.Sum != 40 {
		t.Errorf("after-only hist delta = %+v, want count 2 sum 40", hd)
	}

	// A histogram present on both sides but untouched since `before` drops
	// out (Count delta 0), like an unchanged counter.
	before2 := r2.Snapshot()
	r2.Counter("fresh").Add(1)
	d2 := r2.Snapshot().DeltaFrom(before2)
	if _, ok := d2.Hists["hNew"]; ok {
		t.Error("unchanged histogram should be dropped from the delta")
	}
	if d2.Counters["fresh"] != 1 {
		t.Errorf("counter delta = %d, want 1", d2.Counters["fresh"])
	}
}

func TestPublishExpvarRebindsWithoutPanic(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("c").Add(1)
	PublishExpvar("obs_test_var", r1)
	r2 := NewRegistry()
	r2.Counter("c").Add(2)
	PublishExpvar("obs_test_var", r2) // would panic if Publish were repeated
	PublishExpvar("obs_test_var", nil)
}
