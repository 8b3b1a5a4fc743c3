package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sloClock installs a settable obs.Now and returns the advance function.
func sloClock(t *testing.T) func(time.Duration) {
	t.Helper()
	now := time.Unix(1700000000, 0)
	old := Now
	Now = func() time.Time { return now }
	t.Cleanup(func() { Now = old })
	return func(d time.Duration) { now = now.Add(d) }
}

func TestSLOAvailabilityWindowsAndBurn(t *testing.T) {
	advance := sloClock(t)
	s := NewSLO(SLOConfig{
		Name:    "avail",
		Target:  0.9,
		Windows: []time.Duration{time.Minute, 10 * time.Minute},
		Bucket:  10 * time.Second,
	})
	// 8 good + 2 bad now → ratio 0.8, burn (1-0.8)/(1-0.9) = 2.
	for i := 0; i < 8; i++ {
		s.Record(true)
	}
	s.Record(false)
	s.Record(false)
	rep := s.Report()
	if rep.Name != "avail" || rep.Target != 0.9 {
		t.Fatalf("report header = %+v", rep)
	}
	if w := rep.Windows[0]; w.Total != 10 || w.Good != 8 || w.Ratio != 0.8 {
		t.Fatalf("1m window = %+v", w)
	}
	if burn := rep.Windows[0].BurnRate; burn < 1.99 || burn > 2.01 {
		t.Errorf("burn rate = %v, want 2", burn)
	}

	// After 2 minutes the short window is clean but the long one and the
	// lifetime still remember.
	advance(2 * time.Minute)
	rep = s.Report()
	if w := rep.Windows[0]; w.Total != 0 || w.Ratio != 1 || w.BurnRate != 0 {
		t.Errorf("1m window after rotation = %+v", w)
	}
	if w := rep.Windows[1]; w.Total != 10 || w.Good != 8 {
		t.Errorf("10m window after rotation = %+v", w)
	}
	if rep.Lifetime.Total != 10 || rep.Lifetime.Good != 8 {
		t.Errorf("lifetime = %+v", rep.Lifetime)
	}

	// After 20 minutes every rolling window is clean; lifetime persists.
	advance(20 * time.Minute)
	rep = s.Report()
	if w := rep.Windows[1]; w.Total != 0 {
		t.Errorf("10m window after long idle = %+v", w)
	}
	if rep.Lifetime.Total != 10 {
		t.Errorf("lifetime after idle = %+v", rep.Lifetime)
	}
}

func TestSLOLatencyThreshold(t *testing.T) {
	sloClock(t)
	s := NewSLO(SLOConfig{Name: "lat", Target: 0.99, Threshold: 100 * time.Millisecond})
	s.RecordDuration(10 * time.Millisecond)
	s.RecordDuration(100 * time.Millisecond) // boundary counts as good
	s.RecordDuration(250 * time.Millisecond)
	rep := s.Report()
	if rep.ThresholdMS != 100 {
		t.Errorf("threshold_ms = %v", rep.ThresholdMS)
	}
	if rep.Lifetime.Total != 3 || rep.Lifetime.Good != 2 {
		t.Errorf("lifetime = %+v", rep.Lifetime)
	}
}

func TestSLOConfigDefaultsAndClamps(t *testing.T) {
	s := NewSLO(SLOConfig{Name: "d", Target: 7})
	if s.target != 0.999 {
		t.Errorf("out-of-range target clamped to %v, want 0.999", s.target)
	}
	if len(s.windows) != len(DefaultSLOWindows) || s.bucket != 10*time.Second {
		t.Errorf("defaults not applied: windows %v bucket %v", s.windows, s.bucket)
	}
	// Ring must cover the longest default window.
	if got, want := len(s.buckets), int(6*time.Hour/(10*time.Second))+1; got != want {
		t.Errorf("ring size %d, want %d", got, want)
	}
}

func TestSLONilReceivers(t *testing.T) {
	var s *SLO
	s.Record(true)
	s.RecordDuration(time.Second)
	if s.Name() != "" {
		t.Error("nil Name")
	}
	if rep := s.Report(); rep.Name != "" || rep.Windows != nil {
		t.Errorf("nil Report = %+v", rep)
	}
	var ss *SLOSet
	ss.Add(NewSLO(SLOConfig{Name: "x"}))
	ss.Remove("x")
	if ss.Report() != nil {
		t.Error("nil set Report not nil")
	}
	if err := ss.WriteProm(&strings.Builder{}); err != nil {
		t.Errorf("nil set WriteProm: %v", err)
	}
}

func TestSLOSetHandlerAndProm(t *testing.T) {
	sloClock(t)
	ss := NewSLOSet()
	s := NewSLO(SLOConfig{Name: "classify_availability", Target: 0.999})
	ss.Add(s)
	ss.Add(nil) // ignored
	ss.Add(NewSLO(SLOConfig{Name: "retired_version"}))
	ss.Remove("retired_version")
	ss.Remove("never_registered") // no-op
	s.Record(true)
	s.Record(false)

	mux := http.NewServeMux()
	Mount(mux, nil, ss, nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/slo", nil))
	var reports []SLOReport
	if err := json.Unmarshal(w.Body.Bytes(), &reports); err != nil {
		t.Fatalf("handler JSON: %v", err)
	}
	if len(reports) != 1 || reports[0].Name != "classify_availability" {
		t.Fatalf("reports = %+v", reports)
	}
	if reports[0].Lifetime.Total != 2 || reports[0].Lifetime.Good != 1 {
		t.Errorf("lifetime = %+v", reports[0].Lifetime)
	}

	var b strings.Builder
	if err := ss.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`bstc_slo_target{slo="classify_availability"} 0.999`,
		`bstc_slo_ratio{slo="classify_availability",window="lifetime"} 0.5`,
		`bstc_slo_events_total{slo="classify_availability",window="lifetime"} 2`,
		"# TYPE bstc_slo_burn_rate gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteProm output missing %q in:\n%s", want, text)
		}
	}
}
