package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// SLO tracks one service-level objective — a target fraction of "good"
// events — over rolling multi-window history, SRE-workbook style: each
// window reports its attainment and its burn rate (error rate divided by
// the error budget 1-target; burn > 1 means the budget is being spent
// faster than it renews). Events land in fixed-width time buckets on a
// ring sized for the longest window, so Record is O(1) and allocation
// free after construction. The nil *SLO is a valid no-op receiver.
//
// Two flavors share the type: a latency SLO (Threshold > 0; events are
// durations, good when <= Threshold) and an availability SLO (Threshold
// == 0; events are good/bad outcomes).
type SLO struct {
	name      string
	target    float64
	threshold time.Duration
	windows   []time.Duration
	bucket    time.Duration

	mu        sync.Mutex
	buckets   []sloBucket
	head      int       // index of the current bucket
	headStart time.Time // start of the current bucket's interval
	lifeGood  int64
	lifeTotal int64
}

type sloBucket struct{ good, total int64 }

// SLOConfig describes one objective.
type SLOConfig struct {
	// Name identifies the objective ("classify_latency", "availability").
	Name string
	// Target is the objective's good fraction, e.g. 0.999. Values outside
	// (0, 1) clamp to 0.999.
	Target float64
	// Threshold, when > 0, makes this a latency SLO: a RecordDuration
	// event is good iff it is <= Threshold.
	Threshold time.Duration
	// Windows are the rolling evaluation windows (default 5m, 30m, 1h, 6h).
	Windows []time.Duration
	// Bucket is the ring granularity (default 10s).
	Bucket time.Duration
}

// DefaultSLOWindows are the burn-rate windows used when none are given —
// the short/long pairs of classic multi-window multi-burn alerting.
var DefaultSLOWindows = []time.Duration{5 * time.Minute, 30 * time.Minute, time.Hour, 6 * time.Hour}

// NewSLO builds a tracker. See SLOConfig for defaults.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Target <= 0 || cfg.Target >= 1 {
		cfg.Target = 0.999
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = DefaultSLOWindows
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = 10 * time.Second
	}
	longest := cfg.Windows[0]
	for _, w := range cfg.Windows[1:] {
		if w > longest {
			longest = w
		}
	}
	n := int(longest/cfg.Bucket) + 1
	return &SLO{
		name:      cfg.Name,
		target:    cfg.Target,
		threshold: cfg.Threshold,
		windows:   cfg.Windows,
		bucket:    cfg.Bucket,
		buckets:   make([]sloBucket, n),
		headStart: Now(),
	}
}

// Name returns the objective's name ("" for nil).
func (s *SLO) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Record adds one availability event. No-op on nil.
func (s *SLO) Record(good bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.advance(Now())
	s.buckets[s.head].total++
	s.lifeTotal++
	if good {
		s.buckets[s.head].good++
		s.lifeGood++
	}
	s.mu.Unlock()
}

// RecordDuration adds one latency event, good iff d <= the configured
// threshold (always good when the SLO has no threshold). No-op on nil.
func (s *SLO) RecordDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.Record(s.threshold <= 0 || d <= s.threshold)
}

// advance rotates the ring forward to now, zeroing skipped buckets.
// Callers hold s.mu.
func (s *SLO) advance(now time.Time) {
	steps := int(now.Sub(s.headStart) / s.bucket)
	if steps <= 0 {
		return
	}
	if steps > len(s.buckets) {
		steps = len(s.buckets)
	}
	for i := 0; i < steps; i++ {
		s.head = (s.head + 1) % len(s.buckets)
		s.buckets[s.head] = sloBucket{}
	}
	// Re-anchor on the bucket grid so idle periods cannot drift it.
	s.headStart = s.headStart.Add(now.Sub(s.headStart) / s.bucket * s.bucket)
}

// SLOWindow is one rolling window's attainment and burn rate.
type SLOWindow struct {
	Window   string  `json:"window"`
	Total    int64   `json:"total"`
	Good     int64   `json:"good"`
	Ratio    float64 `json:"ratio"`     // good/total; 1 when the window is empty
	BurnRate float64 `json:"burn_rate"` // (1-ratio)/(1-target)
}

// SLOReport is the full state of one objective.
type SLOReport struct {
	Name        string      `json:"name"`
	Target      float64     `json:"target"`
	ThresholdMS float64     `json:"threshold_ms,omitempty"`
	Lifetime    SLOWindow   `json:"lifetime"`
	Windows     []SLOWindow `json:"windows"`
}

func (s *SLO) window(label string, good, total int64) SLOWindow {
	w := SLOWindow{Window: label, Total: total, Good: good, Ratio: 1}
	if total > 0 {
		w.Ratio = float64(good) / float64(total)
	}
	w.BurnRate = (1 - w.Ratio) / (1 - s.target)
	return w
}

// Report evaluates every window now. The zero report is returned for nil.
func (s *SLO) Report() SLOReport {
	if s == nil {
		return SLOReport{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(Now())
	rep := SLOReport{
		Name:     s.name,
		Target:   s.target,
		Lifetime: s.window("lifetime", s.lifeGood, s.lifeTotal),
	}
	if s.threshold > 0 {
		rep.ThresholdMS = float64(s.threshold) / float64(time.Millisecond)
	}
	for _, win := range s.windows {
		n := int(win / s.bucket)
		if n < 1 {
			n = 1
		}
		if n > len(s.buckets) {
			n = len(s.buckets)
		}
		var good, total int64
		for i := 0; i < n; i++ {
			b := s.buckets[(s.head-i+len(s.buckets))%len(s.buckets)]
			good += b.good
			total += b.total
		}
		rep.Windows = append(rep.Windows, s.window(win.String(), good, total))
	}
	return rep
}

// SLOSet is a registry of objectives sharing one /slo endpoint and one
// exposition block (see Mount). The nil *SLOSet is a valid no-op receiver.
type SLOSet struct {
	mu   sync.Mutex
	slos []*SLO
}

// NewSLOSet returns an empty set.
func NewSLOSet() *SLOSet { return &SLOSet{} }

// Add registers an objective (nil SLOs are ignored). No-op on a nil set.
func (ss *SLOSet) Add(s *SLO) {
	if ss == nil || s == nil {
		return
	}
	ss.mu.Lock()
	ss.slos = append(ss.slos, s)
	ss.mu.Unlock()
}

// Remove drops every objective with the given name, so a retired model
// version's SLOs stop appearing on /slo and in the exposition. Removing a
// name that is not registered is a no-op.
func (ss *SLOSet) Remove(name string) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	kept := ss.slos[:0]
	for _, s := range ss.slos {
		if s.Name() != name {
			kept = append(kept, s)
		}
	}
	ss.slos = kept
	ss.mu.Unlock()
}

// Report evaluates every registered objective.
func (ss *SLOSet) Report() []SLOReport {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	slos := make([]*SLO, len(ss.slos))
	copy(slos, ss.slos)
	ss.mu.Unlock()
	out := make([]SLOReport, 0, len(slos))
	for _, s := range slos {
		out = append(out, s.Report())
	}
	return out
}

// WriteProm appends the set's state to a Prometheus exposition:
// bstc_slo_ratio / bstc_slo_burn_rate / bstc_slo_events_total per
// (slo, window), plus bstc_slo_target per slo.
func (ss *SLOSet) WriteProm(w io.Writer) error {
	reports := ss.Report()
	if len(reports) == 0 {
		return nil
	}
	var targets, ratios, burns, totals []string
	line := func(name string, labels []Label, v float64) string {
		return fmt.Sprintf("bstc_slo_%s%s %g\n", name, SeriesKey("", labels...), v)
	}
	for _, rep := range reports {
		targets = append(targets, line("target", []Label{{Key: "slo", Value: rep.Name}}, rep.Target))
		wins := append([]SLOWindow{rep.Lifetime}, rep.Windows...)
		for _, win := range wins {
			labels := []Label{{Key: "slo", Value: rep.Name}, {Key: "window", Value: win.Window}}
			ratios = append(ratios, line("ratio", labels, win.Ratio))
			burns = append(burns, line("burn_rate", labels, win.BurnRate))
			totals = append(totals, line("events_total", labels, float64(win.Total)))
		}
	}
	var b strings.Builder
	for _, fam := range []struct {
		name, typ string
		lines     []string
	}{
		{"bstc_slo_target", "gauge", targets},
		{"bstc_slo_ratio", "gauge", ratios},
		{"bstc_slo_burn_rate", "gauge", burns},
		{"bstc_slo_events_total", "gauge", totals},
	} {
		fmt.Fprintf(&b, "# HELP %s Service-level objective state.\n# TYPE %s %s\n", fam.name, fam.name, fam.typ)
		for _, l := range fam.lines {
			b.WriteString(l)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
