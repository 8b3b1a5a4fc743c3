package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"bstc/internal/obs"
)

// stepClock installs a deterministic obs.Now that advances step per call
// and restores the real clock on cleanup.
func stepClock(t *testing.T, step time.Duration) {
	t.Helper()
	base := time.Unix(1700000000, 0)
	n := 0
	old := obs.Now
	obs.Now = func() time.Time {
		n++
		return base.Add(time.Duration(n) * step)
	}
	t.Cleanup(func() { obs.Now = old })
}

// seqRand returns an ID source yielding the given values in order, then
// counting on.
func seqRand(vals ...uint64) func() uint64 {
	i := 0
	return func() uint64 {
		if i < len(vals) {
			i++
			return vals[i-1]
		}
		i++
		return uint64(i) * 1664525
	}
}

func TestSamplingIsDeterministicOnTraceID(t *testing.T) {
	tr := New(Config{SampleRate: 0.5})
	low := TraceID{15: 1} // low 64 bits tiny → sampled at rate 0.5
	var high TraceID
	for i := 8; i < 16; i++ {
		high[i] = 0xff // low 64 bits max → not sampled below rate 1
	}
	if !tr.sampled(low) {
		t.Error("low-ID trace not sampled at rate 0.5")
	}
	if tr.sampled(high) {
		t.Error("high-ID trace sampled at rate 0.5")
	}
	// The decision is pure: repeated asks agree.
	for i := 0; i < 3; i++ {
		if !tr.sampled(low) || tr.sampled(high) {
			t.Fatal("sampling decision changed between calls")
		}
	}
	if !New(Config{SampleRate: 1}).sampled(high) {
		t.Error("rate 1 must sample everything")
	}
	if New(Config{}).sampled(low) {
		t.Error("rate 0 must sample nothing")
	}
}

func TestPropagatedSampledParentAlwaysWins(t *testing.T) {
	tr := New(Config{SampleRate: 0, Recorder: NewRecorder(0), Rand: seqRand(7, 8, 9)})
	parent := SpanContext{TraceID: TraceID{0: 1}, SpanID: SpanID{0: 2}, Sampled: true}
	ctx, span := tr.StartRoot(context.Background(), "srv", parent)
	if span == nil {
		t.Fatal("sampled parent ignored at rate 0")
	}
	if span.Context().TraceID != parent.TraceID {
		t.Errorf("trace ID %s not continued from parent", span.TraceIDString())
	}
	if FromContext(ctx) != span {
		t.Error("context does not carry the span")
	}
	span.End()

	// An unsampled parent at rate 0 stays unsampled.
	parent.Sampled = false
	_, span = tr.StartRoot(context.Background(), "srv", parent)
	if span != nil {
		t.Error("unsampled parent sampled at rate 0")
	}
}

func TestUnsampledPathsAllocateNothing(t *testing.T) {
	tr := New(Config{SampleRate: 0})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, s := tr.StartRoot(ctx, "root", SpanContext{})
		if c != ctx || s != nil {
			t.Fatal("unsampled StartRoot must return ctx unchanged and nil span")
		}
	})
	if allocs != 0 {
		t.Errorf("unsampled StartRoot allocated %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		c, s := Start(ctx, "child")
		if c != ctx || s != nil {
			t.Fatal("span-free Start must return ctx unchanged and nil span")
		}
	})
	if allocs != 0 {
		t.Errorf("span-free Start allocated %v per run, want 0", allocs)
	}
	var nilTracer *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		_, s := nilTracer.StartRoot(ctx, "root", SpanContext{})
		s.SetAttr("k", 1)
		s.AddEvent("e")
		s.SetError(nil)
		s.StartChild("c").End()
		s.End()
	})
	if allocs != 0 {
		t.Errorf("nil tracer/span path allocated %v per run, want 0", allocs)
	}
	// The layer timer on an unsampled context, with a nil and with a live
	// registry: timing and the phase histogram must stay allocation-free.
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		allocs = testing.AllocsPerRun(1000, func() {
			c, l := StartLayer(ctx, reg, "serve/discretize")
			if c != ctx || l.Span != nil {
				t.Fatal("unsampled StartLayer must return ctx unchanged and no span")
			}
			l.End()
			s := FromContext(ctx)
			s.StartLayer(reg, "serve/classify").End()
		})
		if allocs != 0 {
			t.Errorf("unsampled layer timer (registry %v) allocated %v per run, want 0", reg != nil, allocs)
		}
	}
}

func TestSpanTreeRecordingAndExport(t *testing.T) {
	stepClock(t, time.Millisecond)
	var buf bytes.Buffer
	rec := NewRecorder(0)
	tr := New(Config{SampleRate: 1, Recorder: rec, Exporter: NewExporter(&buf)})

	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	root.SetAttr("dataset", "PC")
	_, child := Start(ctx, "child")
	child.AddEvent("milestone")
	grand := child.StartChild("grand")
	grand.SetError(errors.New("boom"))
	grand.End()
	child.End()
	root.End()

	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("Traces() = %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	if spans[0].Name != "root" || spans[0].ParentID != "" {
		t.Errorf("first span = %s parent %q, want root with no parent", spans[0].Name, spans[0].ParentID)
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		if d.TraceID != root.TraceIDString() {
			t.Errorf("span %s trace %s, want %s", d.Name, d.TraceID, root.TraceIDString())
		}
		byName[d.Name] = d
	}
	if byName["child"].ParentID != spans[0].SpanID {
		t.Error("child's parent is not the root span")
	}
	if byName["grand"].ParentID != byName["child"].SpanID {
		t.Error("grand's parent is not the child span")
	}
	if byName["root"].Attrs["dataset"] != "PC" {
		t.Errorf("root attrs = %v", byName["root"].Attrs)
	}
	if len(byName["child"].Events) != 1 || byName["child"].Events[0].Name != "milestone" {
		t.Errorf("child events = %v", byName["child"].Events)
	}
	if byName["grand"].Error != "boom" {
		t.Errorf("grand error = %q", byName["grand"].Error)
	}
	if byName["grand"].DurationUS <= 0 {
		t.Error("grand has no duration")
	}

	// The errored span is retained in the error ring too.
	errs := rec.Errors()
	if len(errs) != 1 || errs[0].Name != "grand" {
		t.Errorf("error ring = %v", errs)
	}

	// Export: one JSON line per finished span, in end order.
	var lines []SpanData
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var d SpanData
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("export line: %v", err)
		}
		lines = append(lines, d)
	}
	if len(lines) != 3 {
		t.Fatalf("exported %d lines, want 3", len(lines))
	}
	if lines[0].Name != "grand" || lines[2].Name != "root" {
		t.Errorf("export order = %s..%s, want grand..root", lines[0].Name, lines[2].Name)
	}
}

func TestStartRootNestsUnderContextSpan(t *testing.T) {
	tr := New(Config{SampleRate: 1, Recorder: NewRecorder(0)})
	ctx, root := tr.StartRoot(context.Background(), "outer", SpanContext{})
	_, inner := tr.StartRoot(ctx, "inner", SpanContext{})
	if inner.Context().TraceID != root.Context().TraceID {
		t.Error("nested StartRoot opened a new trace")
	}
	inner.End()
	root.End()
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	tr := New(Config{SampleRate: 1, Recorder: rec})
	for i := 0; i < 10; i++ {
		_, s := tr.StartRoot(context.Background(), "s", SpanContext{})
		s.SetAttr("i", i)
		s.End()
	}
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, d := range spans {
		if want := 6 + i; d.Attrs["i"] != want {
			t.Errorf("span %d = i:%v, want %d (oldest-first of the newest 4)", i, d.Attrs["i"], want)
		}
	}
}

func TestErrorRingSurvivesHealthyTraffic(t *testing.T) {
	rec := NewRecorder(4)
	tr := New(Config{SampleRate: 1, Recorder: rec})
	_, bad := tr.StartRoot(context.Background(), "bad", SpanContext{})
	bad.SetError(errors.New("kept"))
	bad.End()
	badTrace := bad.TraceIDString()
	for i := 0; i < 100; i++ {
		_, s := tr.StartRoot(context.Background(), "ok", SpanContext{})
		s.End()
	}
	for _, d := range rec.Spans() {
		if d.Name == "bad" {
			t.Fatal("errored span should have been evicted from the recent ring")
		}
	}
	errs := rec.Errors()
	if len(errs) != 1 || errs[0].Error != "kept" {
		t.Fatalf("error ring = %v, want the one errored span", errs)
	}
	if _, ok := rec.TraceByID(badTrace); !ok {
		t.Error("TraceByID cannot find the errored trace via the error ring")
	}
}

func TestActiveSpansSnapshot(t *testing.T) {
	rec := NewRecorder(0)
	tr := New(Config{SampleRate: 1, Recorder: rec})
	_, s := tr.StartRoot(context.Background(), "inflight", SpanContext{})
	act := rec.Active()
	if len(act) != 1 || act[0].Name != "inflight" {
		t.Fatalf("active = %v", act)
	}
	s.End()
	if act := rec.Active(); len(act) != 0 {
		t.Errorf("active after End = %v", act)
	}
}

func TestSecondEndIgnored(t *testing.T) {
	rec := NewRecorder(0)
	tr := New(Config{SampleRate: 1, Recorder: rec})
	_, s := tr.StartRoot(context.Background(), "once", SpanContext{})
	s.End()
	s.End()
	if got := len(rec.Spans()); got != 1 {
		t.Errorf("double End recorded %d spans, want 1", got)
	}
}
