package obs

import (
	"context"
	"io"
	"log/slog"
	"os"
	"sync"
)

// RunRecord is one machine-readable experiment-run record: configuration,
// per-phase wall-clock, counter deltas, accuracy, and DNF/error state. One
// JSON object per line in the -runlog file; the schema is documented in
// EXPERIMENTS.md ("Run telemetry").
type RunRecord struct {
	// Experiment tags the producing protocol ("cv" for the §6.2
	// cross-validation studies).
	Experiment string `json:"experiment"`
	// Dataset is the profile name (ALL, LC, PC, OC) or input file.
	Dataset string `json:"dataset,omitempty"`
	// Size is the training-size label ("40%", "1-52/0-50", …).
	Size string `json:"size,omitempty"`
	// Test is the 0-based test index within the size.
	Test int `json:"test"`
	// Worker is the 1-based pool worker that ran this test when the study
	// executed with more than one worker; 0 (omitted) on one-worker runs.
	Worker int `json:"worker,omitempty"`
	// Seed is the study's random seed.
	Seed int64 `json:"seed"`
	// Config carries the numeric protocol parameters (tests, cutoff_ms,
	// min_support, k, nl). Values are float64 so records round-trip
	// through encoding/json unchanged.
	Config map[string]float64 `json:"config,omitempty"`
	// PhasesMS maps phase names (discretize, bstc/train, bstc/classify,
	// rcbt/topk, rcbt/build, rcbt/classify, …) to fractional milliseconds.
	PhasesMS map[string]float64 `json:"phases_ms,omitempty"`
	// Counters holds the run's counter deltas and gauge peaks (miner
	// nodes, prunes, cache hits/misses, deadline polls, …). The registry is
	// shared, so with Workers > 1 each test's snapshot window may also catch
	// activity from tests running concurrently on other workers; one-worker
	// runs attribute exactly.
	Counters map[string]int64 `json:"counters,omitempty"`

	BSTCAccuracy *float64 `json:"bstc_accuracy,omitempty"`
	RCBTAccuracy *float64 `json:"rcbt_accuracy,omitempty"`

	// TopkDNF / RCBTDNF mirror the tables' DNF cells: the phase hit its
	// cutoff and its reported time is the cutoff (a "≥" lower bound).
	TopkDNF bool `json:"topk_dnf,omitempty"`
	RCBTDNF bool `json:"rcbt_dnf,omitempty"`
	// DNF marks a test stopped by the study's context (deadline or
	// cancellation) rather than a per-phase cutoff; the test is recorded,
	// not error-aborted, and DNFReason says why ("deadline", "canceled",
	// or "cutoff" when a phase cutoff is the cause).
	DNF       bool   `json:"dnf,omitempty"`
	DNFReason string `json:"dnf_reason,omitempty"`
	// NLUsed / NLFallback record the paper's nl=20→2 adjustment (†).
	NLUsed     int  `json:"nl_used,omitempty"`
	NLFallback bool `json:"nl_fallback,omitempty"`

	GenesAfterDiscretization int `json:"genes_after_discretization,omitempty"`

	// TraceID / SpanID tie the record to its trace when the run executed
	// under a sampled span, so a DNF or error row in the runlog can be
	// looked up on /tracez or in the trace JSONL export.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`

	// Error carries a real failure (not a DNF): mining or training errors
	// that previously vanished into DNF cells surface here and as a
	// non-zero CLI exit.
	Error string `json:"error,omitempty"`
	// Stack carries the goroutine stack of a panic recovered on the worker
	// that ran this test; the panic is contained (the study continues) and
	// Error holds the panic value.
	Stack string `json:"stack,omitempty"`
	// Replayed marks a record re-emitted from a checkpoint journal on
	// resume instead of recomputed.
	Replayed bool `json:"replayed,omitempty"`
}

// Float64Ptr adapts a value for the record's optional accuracy fields.
func Float64Ptr(v float64) *float64 { return &v }

// RunLog appends RunRecords as JSON lines through log/slog. The nil
// *RunLog is a valid no-op sink, so harnesses thread it unconditionally.
// Emit is safe for concurrent use.
type RunLog struct {
	mu       sync.Mutex
	closer   io.Closer
	logger   *slog.Logger
	observer func(RunRecord)
}

// NewRunLog writes records to w, one slog JSON line each.
func NewRunLog(w io.Writer) *RunLog {
	return &RunLog{logger: slog.New(slog.NewJSONHandler(w, nil))}
}

// OpenRunLog creates (truncates) path and returns a RunLog writing to it.
func OpenRunLog(path string) (*RunLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := NewRunLog(f)
	l.closer = f
	return l, nil
}

// Observe registers fn to be called with every record Emit appends —
// the hook SLO trackers and live dashboards use to tap the stream
// without touching the producers. fn runs under the log's mutex, so it
// must be quick and must not Emit. No-op on a nil log.
func (l *RunLog) Observe(fn func(RunRecord)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.observer
	if prev == nil {
		l.observer = fn
		return
	}
	l.observer = func(rec RunRecord) { prev(rec); fn(rec) }
}

// Emit appends one record. No-op on a nil log.
func (l *RunLog) Emit(rec RunRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.logger.LogAttrs(context.Background(), slog.LevelInfo, "run", slog.Any("run", rec))
	if l.observer != nil {
		l.observer(rec)
	}
}

// Close closes the underlying file, if Open-ed. No-op otherwise.
func (l *RunLog) Close() error {
	if l == nil || l.closer == nil {
		return nil
	}
	return l.closer.Close()
}
