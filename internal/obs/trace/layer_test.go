package trace

import (
	"context"
	"errors"
	"testing"
	"time"

	"bstc/internal/obs"
)

// TestLayerUnsampledTimesAndRecords: without a sampled span a layer still
// measures, records phase.<name> in a live registry (summing repeats), and
// leaves the context unchanged; with a nil registry it only measures.
func TestLayerUnsampledTimesAndRecords(t *testing.T) {
	stepClock(t, time.Millisecond)
	reg := obs.NewRegistry()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		c, l := StartLayer(ctx, reg, "rcbt/topk")
		if c != ctx || l.Span != nil {
			t.Fatal("unsampled StartLayer must return ctx unchanged and no span")
		}
		if d := l.End(); d != time.Millisecond {
			t.Errorf("layer duration = %v, want 1ms under the stepping clock", d)
		}
	}
	h := reg.Histogram("phase.rcbt/topk")
	if h.Count() != 2 || h.Sum() != int64(2*time.Millisecond) {
		t.Errorf("phase.rcbt/topk count %d sum %d, want 2 and 2ms", h.Count(), h.Sum())
	}
	var nilSpan *Span
	if d := nilSpan.StartLayer(nil, "x").End(); d != time.Millisecond {
		t.Errorf("nil span, nil registry layer = %v, want 1ms", d)
	}
}

// TestLayerSampledSpanSharesItsName: under a sampled span one layer call
// records both the phase.<name> histogram and a child span of that name,
// with the same duration; layers started from the returned context nest,
// and the embedded span carries events and errors.
func TestLayerSampledSpanSharesItsName(t *testing.T) {
	stepClock(t, time.Millisecond)
	rec := NewRecorder(0)
	tr := New(Config{SampleRate: 1, Recorder: rec})
	reg := obs.NewRegistry()
	ctx, root := tr.StartRoot(context.Background(), "cv/test", SpanContext{})
	bctx, bstc := StartLayer(ctx, reg, "bstc")
	_, train := StartLayer(bctx, reg, "bstc/train")
	train.AddEvent("fallback")
	train.SetError(errors.New("boom"))
	trainD := train.End()
	bstc.End()
	root.End()

	byName := map[string]SpanData{}
	for _, d := range rec.Spans() {
		byName[d.Name] = d
	}
	if byName["bstc"].ParentID != root.SpanIDString() {
		t.Errorf("bstc span parent = %q, want the root", byName["bstc"].ParentID)
	}
	tspan := byName["bstc/train"]
	if tspan.ParentID != byName["bstc"].SpanID {
		t.Errorf("bstc/train span parent = %q, want bstc", tspan.ParentID)
	}
	if tspan.Error != "boom" || len(tspan.Events) != 1 {
		t.Errorf("bstc/train span error %q events %v", tspan.Error, tspan.Events)
	}
	if got := time.Duration(tspan.DurationUS * float64(time.Microsecond)); got != trainD {
		t.Errorf("span duration %v != layer duration %v", got, trainD)
	}
	if h := reg.Histogram("phase.bstc/train"); h.Count() != 1 || h.Sum() != int64(trainD) {
		t.Errorf("phase.bstc/train count %d sum %d, want 1 and %d", h.Count(), h.Sum(), trainD)
	}
	if reg.Histogram("phase.bstc").Count() != 1 {
		t.Error("phase.bstc not recorded")
	}
}
