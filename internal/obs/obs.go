// Package obs is the repository's instrumentation substrate: cheap atomic
// counters, gauges and histograms behind a registry with a snapshot API,
// a structured JSONL run log (log/slog), rolling SLO trackers, and the one
// HTTP handler set (Mount: /metrics, /slo, /tracez) every daemon and debug
// server serves, next to net/http/pprof and CPU/heap profiling hooks.
// Layer timing, which records the phase.<name> histograms here, lives in
// internal/obs/trace, so one call both times a layer and spans it.
//
// The package is stdlib-only and designed so that uninstrumented runs pay
// essentially nothing: every metric type is nil-safe (a method on a nil
// *Counter, *Gauge or *Histogram is a no-op and allocates nothing), and a
// nil *Registry hands out nil metrics. Hot paths therefore hold metric
// pointers that are nil until a harness installs a live registry — the
// disabled cost is one predictable nil check per event.
//
// The paper this repository reproduces makes *performance* claims (BSTC
// polynomial while Top-k/RCBT go super-linear and DNF, Tables 4/6); this
// package exists so those claims can be explained, not just timed: nodes
// pruned in the row-enumeration miner, exclusion-list sizes, lower-bound
// BFS steps and deadline polls all become queryable per run.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Now is the clock every timer and deadline in the instrumented pipeline
// reads. Tests swap it for a deterministic stepper to make phase timings
// (and hence rendered runtime tables) reproducible; production code leaves
// it alone.
var Now func() time.Time = time.Now

// Counter is a monotonically increasing atomic counter. The nil *Counter
// is a valid no-op receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil *Gauge is a valid no-op
// receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value — the shape
// peak trackers (BFS frontier sizes) want.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns named metrics. The zero value is not useful; use
// NewRegistry. A nil *Registry is the disabled state: it hands out nil
// metrics and empty snapshots.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns the nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns the nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns the nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Phase returns the "phase.<name>" histogram a layer timer records into,
// creating it on first use. Looking up an existing histogram allocates
// nothing for names up to 26 bytes (the key is built in a stack buffer). A
// nil registry returns the nil (no-op) histogram.
func (r *Registry) Phase(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists["phase."+name]
	if !ok {
		h = &Histogram{}
		r.hists["phase."+name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, suitable for
// JSON encoding (/metrics, run records).
type Snapshot struct {
	Counters map[string]int64       `json:"counters,omitempty"`
	Gauges   map[string]int64       `json:"gauges,omitempty"`
	Hists    map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value. A nil registry yields the
// zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSummary, len(r.hists))
		for name, h := range r.hists {
			s.Hists[name] = h.Summary()
		}
	}
	return s
}

// DeltaFrom subtracts an earlier snapshot: counters and histogram
// counts/sums become the increase over the interval, while gauges (peaks,
// levels) keep their current value. Zero counter deltas are dropped so run
// records stay compact.
func (s Snapshot) DeltaFrom(before Snapshot) Snapshot {
	d := Snapshot{}
	for name, v := range s.Counters {
		if dv := v - before.Counters[name]; dv != 0 {
			if d.Counters == nil {
				d.Counters = map[string]int64{}
			}
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		if v != 0 {
			if d.Gauges == nil {
				d.Gauges = map[string]int64{}
			}
			d.Gauges[name] = v
		}
	}
	for name, h := range s.Hists {
		b := before.Hists[name]
		h.Count -= b.Count
		h.Sum -= b.Sum
		if h.Count != 0 {
			if d.Hists == nil {
				d.Hists = map[string]HistSummary{}
			}
			d.Hists[name] = h
		}
	}
	return d
}

// Flat merges counter deltas and gauge values into one name→value map —
// the form run records and summary lines use.
func (s Snapshot) Flat() map[string]int64 {
	if len(s.Counters) == 0 && len(s.Gauges) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.Counters)+len(s.Gauges))
	for name, v := range s.Counters {
		out[name] = v
	}
	for name, v := range s.Gauges {
		out[name] = v
	}
	return out
}

// SortedNames returns the flat metric names in lexical order, for stable
// human-readable rendering.
func (s Snapshot) SortedNames() []string {
	flat := s.Flat()
	names := make([]string, 0, len(flat))
	for name := range flat {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
