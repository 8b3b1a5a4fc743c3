package eval

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/rcbt"
)

// recordPhases are the phases_ms keys EXPERIMENTS.md ("Run telemetry")
// documents for a cross-validation test that runs RCBT. bench/bstcperf and
// bstcbench's busy: summary read these names, so a rename must fail here.
var recordPhases = []string{
	"bstc", "bstc/classify", "bstc/train", "discretize",
	"rcbt/build", "rcbt/classify", "rcbt/topk",
}

// TestRunCVTracedLayerNames runs a traced study and checks that one name
// serves each layer three ways: every record's phases_ms carries exactly
// the documented keys, each key has its phase.<key> histogram, and every
// span under cv/test is named like one of the keys (all of them present).
func TestRunCVTracedLayerNames(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	rec := trace.NewRecorder(0)
	tracer := trace.New(trace.Config{SampleRate: 1, Recorder: rec})
	ctx, root := tracer.StartRoot(context.Background(), "exp/test", trace.SpanContext{})
	var buf bytes.Buffer
	_, err := RunCV(ctx, CVConfig{
		Data:    toyData(t, 7),
		Sizes:   []TrainSize{{Label: "60%", Frac: 0.6}},
		Tests:   2,
		Seed:    9,
		RunRCBT: true,
		RCBT:    rcbt.Config{MinSupport: 0.7, K: 2, NL: 3},
		Cutoff:  time.Minute,
		Dataset: "toy",
		RunLog:  obs.NewRunLog(&buf),
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}

	recs := runlogLines(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for i, r := range recs {
		var got []string
		for k := range r.PhasesMS {
			got = append(got, k)
		}
		if slices.Sort(got); !slices.Equal(got, recordPhases) {
			t.Errorf("record %d phases_ms keys = %v, want %v", i, got, recordPhases)
		}
		if r.TraceID != root.TraceIDString() {
			t.Errorf("record %d trace_id = %q, want the study's", i, r.TraceID)
		}
	}
	snap := reg.Snapshot()
	for _, p := range recordPhases {
		if got := snap.Hists["phase."+p].Count; got != int64(len(recs)) {
			t.Errorf("phase.%s count = %d, want one per test (%d)", p, got, len(recs))
		}
	}

	// Below the root, cv/test runs once per test, and every span under it
	// is a layer named like a phases_ms key, once per test: bstc/train and
	// bstc/classify under bstc, the rest under cv/test.
	spans := rec.Spans()
	nameOf := map[string]string{}
	for _, d := range spans {
		nameOf[d.SpanID] = d.Name
	}
	seen := map[string]int{}
	for _, d := range spans {
		seen[d.Name]++
		if d.Name == "exp/test" || d.Name == "cv/test" {
			continue
		}
		want := "cv/test"
		if strings.HasPrefix(d.Name, "bstc/") {
			want = "bstc"
		}
		if !slices.Contains(recordPhases, d.Name) || nameOf[d.ParentID] != want {
			t.Errorf("span %q under %q, want a phases_ms key under %q", d.Name, nameOf[d.ParentID], want)
		}
	}
	for _, name := range append([]string{"cv/test"}, recordPhases...) {
		if seen[name] != len(recs) {
			t.Errorf("%d %q spans, want one per test (%d)", seen[name], name, len(recs))
		}
	}
}

// TestEndPhaseSumsRepeats: a layer run twice under one name (the nl
// fallback's two rcbt/build attempts) sums into one phases_ms entry.
func TestEndPhaseSumsRepeats(t *testing.T) {
	old := obs.Now
	t.Cleanup(func() { obs.Now = old })
	calls := 0
	obs.Now = func() time.Time {
		calls++
		return time.Unix(0, 0).Add(time.Duration(calls) * time.Millisecond)
	}
	phasesMS := map[string]float64{}
	for i := 0; i < 2; i++ {
		_, l := trace.StartLayer(context.Background(), nil, "rcbt/build")
		if d := endPhase(phasesMS, l); d != time.Millisecond {
			t.Errorf("attempt %d = %v, want 1ms under the stepping clock", i, d)
		}
	}
	if got := phasesMS["rcbt/build"]; got != 2 {
		t.Errorf("phases_ms[rcbt/build] = %v, want 2 (both attempts)", got)
	}
}
