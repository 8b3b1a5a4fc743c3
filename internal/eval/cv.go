package eval

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/rcbt"
)

// TrainSize is one row of the cross-validation protocol: either a random
// fraction of all samples (the paper's 40%/60%/80% sizes) or fixed
// per-class counts (the paper's "1-x/0-y" sizes).
type TrainSize struct {
	Label  string
	Frac   float64 // used when > 0
	Counts []int   // used otherwise: training samples per class
}

func (ts TrainSize) split(r *rand.Rand, d *dataset.Continuous) (dataset.Split, error) {
	if ts.Frac > 0 {
		return dataset.RandomFractionSplit(r, d.NumSamples(), ts.Frac)
	}
	return dataset.FixedCountSplit(r, d.Classes, ts.Counts)
}

// PaperTrainSizes builds the four §6.2 training sizes for a dataset with
// the given clinically-determined counts (class1, class0) — e.g. for PC:
// 40%, 60%, 80% and 1-52/0-50.
func PaperTrainSizes(given [2]int) []TrainSize {
	return []TrainSize{
		{Label: "40%", Frac: 0.4},
		{Label: "60%", Frac: 0.6},
		{Label: "80%", Frac: 0.8},
		{Label: fmt.Sprintf("1-%d/0-%d", given[0], given[1]), Counts: []int{given[0], given[1]}},
	}
}

// CVConfig drives a cross-validation study on one dataset.
type CVConfig struct {
	Data  *dataset.Continuous
	Sizes []TrainSize
	// Tests per size (the paper uses 25).
	Tests int
	Seed  int64

	BSTCOpts *core.EvalOptions

	// RunRCBT enables the Top-k/RCBT arm.
	RunRCBT bool
	RCBT    rcbt.Config
	// Cutoff bounds each Top-k/RCBT phase (the paper's 2 hours); 0 is
	// unbounded.
	Cutoff time.Duration
	// NLFallback retries a DNF'd RCBT build with this nl (the paper's 2).
	NLFallback int

	// Workers bounds how many (size, test) evaluations run concurrently;
	// the same value stripes gene discretization and batch classification
	// inside each test. 0 or 1 runs the exact legacy serial path. Splits
	// are always pre-drawn serially from the study's rand.Rand, so results
	// and rendered tables are identical for every worker count.
	Workers int

	// Checkpoint, when non-empty, journals every finished test to this
	// JSONL file (synced per entry) and resumes from it on restart: the
	// journaled prefix is replayed — its run-log records re-emitted with
	// Replayed set — and only the remaining tests are computed, with the
	// deterministic aggregate identical to an uninterrupted run. A journal
	// from a different study (dataset, seed, sizes, …) is refused with
	// ErrCheckpointMismatch.
	Checkpoint string

	// Dataset labels run-log records with the profile under study (ALL,
	// LC, PC, OC, or an input file name).
	Dataset string
	// RunLog, when non-nil, receives one JSONL record per (size, test):
	// config, per-phase milliseconds, counter deltas (when SetMetrics has
	// installed a registry), accuracies and DNF state. Errors that abort
	// the study are recorded on the failing test's line before RunCV
	// returns them.
	RunLog *obs.RunLog
}

// recordConfig flattens the numeric protocol parameters for run records.
func (cfg CVConfig) recordConfig() map[string]float64 {
	m := map[string]float64{
		"tests":     float64(cfg.Tests),
		"cutoff_ms": float64(cfg.Cutoff) / float64(time.Millisecond),
		"workers":   float64(cfg.effectiveWorkers()),
	}
	if cfg.RunRCBT {
		m["min_support"] = cfg.RCBT.MinSupport
		m["k"] = float64(cfg.RCBT.K)
		m["nl"] = float64(cfg.RCBT.NL)
		if cfg.RCBT.MaxNodes > 0 {
			m["max_nodes"] = float64(cfg.RCBT.MaxNodes)
		}
	}
	return m
}

// effectiveWorkers normalizes the Workers knob: anything below 1 is the
// serial path.
func (cfg CVConfig) effectiveWorkers() int {
	if cfg.Workers < 1 {
		return 1
	}
	return cfg.Workers
}

// SizeResult aggregates one training size's tests.
type SizeResult struct {
	Size       TrainSize
	BSTC       []BSTCOutcome
	RCBT       []RCBTOutcome
	GenesAfter []int
	// Failed marks tests with no valid BSTC outcome — a contained worker
	// panic, or a context stop before BSTC finished. Aggregate helpers skip
	// them; the run log carries the failure detail (error, stack, DNF
	// reason).
	Failed []bool
}

// ok reports whether test i produced a valid BSTC outcome.
func (sr SizeResult) ok(i int) bool {
	return i >= len(sr.Failed) || !sr.Failed[i]
}

// cvTask is one drawn (size, test) evaluation. splitErr, when non-nil,
// poisons the position where split drawing failed: every task before it
// still runs and emits, then the poisoned record is emitted and the error
// returned — exactly the serial protocol's behaviour.
type cvTask struct {
	test     int
	size     TrainSize
	sp       dataset.Split
	splitErr error
}

// cvResult is one finished evaluation, held until every earlier task's
// record has been emitted.
type cvResult struct {
	rec        obs.RunRecord
	bstc       BSTCOutcome
	rcbt       RCBTOutcome
	genesAfter int
	err        error
	// contained marks err as a recovered panic: the record fails but the
	// study continues on the remaining tests.
	contained bool
	// dnf marks err as a context stop: the record is a DNF, not a failure,
	// and RunCV returns the completed prefix without an error.
	dnf bool
	// failed mirrors SizeResult.Failed: no valid BSTC outcome.
	failed bool
}

// RunCV runs the full study: Tests independent random splits per size, each
// discretized on its training half, with BSTC always and Top-k/RCBT
// optionally evaluated. With Workers > 1 the tests run on a bounded worker
// pool; splits are drawn serially in task order from the shared generator
// and records are emitted in task order, so every artifact is identical to
// the serial run.
//
// Resilience semantics:
//   - A context deadline or cancellation is not an error: tests already
//     running finish as DNF records (reason "deadline" / "canceled"), no
//     further splits are drawn, and the completed prefix of results is
//     returned with a nil error.
//   - A panic on any worker is contained: the test's record carries the
//     panic value and stack, the study continues, and the test is marked
//     Failed in its SizeResult.
//   - With cfg.Checkpoint set, finished tests are journaled and a restart
//     resumes after the journaled prefix.
func RunCV(ctx context.Context, cfg CVConfig) ([]SizeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Tests <= 0 {
		return nil, fmt.Errorf("eval: Tests = %d", cfg.Tests)
	}
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("eval: no training sizes")
	}
	workers := cfg.effectiveWorkers()

	total := len(cfg.Sizes) * cfg.Tests
	results := make([]*cvResult, total)

	// Checkpoint resume: replay the journaled prefix, re-emitting its
	// records marked Replayed, and start computing after it.
	start := 0
	var journal *cvJournal
	if cfg.Checkpoint != "" {
		cp, replay, err := openJournal(cfg)
		if err != nil {
			return nil, err
		}
		journal = cp
		defer journal.Close()
		for i, res := range replay {
			res.rec.Replayed = true
			cfg.RunLog.Emit(res.rec)
			results[i] = res
		}
		start = len(replay)
	}

	// Splits are drawn lazily, one task ahead of dispatch, always in task
	// order from the shared generator — split is the protocol's only rand
	// consumer, so the drawn sequence (and every downstream result) matches
	// the serial path exactly, and a stopped study stops drawing instead of
	// burning through the remaining sizes. Replayed tests consume their
	// draws so the stream lines up for the fresh ones.
	r := rand.New(rand.NewSource(cfg.Seed))
	draw := func(i int) cvTask {
		size := cfg.Sizes[i/cfg.Tests]
		t := cvTask{test: i % cfg.Tests, size: size}
		if err := fault.Hit("eval.split"); err != nil {
			t.splitErr = err
			return t
		}
		t.sp, t.splitErr = size.split(r, cfg.Data)
		return t
	}
	for i := 0; i < start; i++ {
		if t := draw(i); t.splitErr != nil {
			return nil, fmt.Errorf("eval: checkpoint resume: redrawing split %d: %w", i, t.splitErr)
		}
	}

	protoCfg := cfg.recordConfig()
	runTest := func(t cvTask, worker int) (res *cvResult) {
		res = &cvResult{rec: obs.RunRecord{
			Experiment: "cv",
			Dataset:    cfg.Dataset,
			Size:       t.size.Label,
			Test:       t.test,
			Seed:       cfg.Seed,
			Config:     protoCfg,
		}}
		if workers > 1 {
			res.rec.Worker = worker
		}
		rec := &res.rec
		// One span per test, a child of the experiment's root span when the
		// caller traced the study context (bstcbench -trace); untraced
		// contexts cost nothing. The record carries the identity either way
		// it exits, so runlog rows join to /tracez and the JSONL export.
		tctx, tspan := trace.Start(ctx, "cv/test")
		defer tspan.End()
		tspan.SetAttr("dataset", cfg.Dataset)
		tspan.SetAttr("size", t.size.Label)
		tspan.SetAttr("test", t.test)
		if workers > 1 {
			tspan.SetAttr("worker", worker)
		}
		rec.TraceID = tspan.TraceIDString()
		rec.SpanID = tspan.SpanIDString()
		// One snapshot window per test, taken on the worker running it.
		// The deferred delta lands on the record on every exit path —
		// failed tests previously lost exactly the counters that would
		// explain the failure. Concurrent tests share the registry, so
		// overlapping windows may see each other's activity; serial runs
		// attribute exactly.
		before := reg.Snapshot()
		defer func() {
			rec.Counters = reg.Snapshot().DeltaFrom(before).Flat()
		}()
		// Panic containment: a poisoned test degrades to a failed record
		// with the stack in the run log; the pool and the process live on.
		defer func() {
			if r := recover(); r != nil {
				perr := fault.Recovered("eval.cv", r)
				rec.Error = perr.Error()
				rec.Stack = string(perr.Stack)
				res.err = perr
				res.contained = true
				res.failed = true
			}
		}()
		// fail degrades the test to a failed record. A panic recovered in a
		// lower-layer worker pool (a discretize stripe) arrives here as a
		// wrapped PanicError; it is contained exactly like a panic on this
		// worker — stack on the record, study continues.
		fail := func(err error) *cvResult {
			rec.Error = err.Error()
			tspan.SetError(err)
			if perr, ok := fault.AsPanic(err); ok {
				rec.Stack = string(perr.Stack)
				res.contained = true
			}
			res.err = err
			res.failed = true
			return res
		}
		// dnf records a context stop: a DNF outcome, not a failure. bstcOK
		// distinguishes a test stopped after BSTC finished (its accuracy
		// stands) from one stopped before (nothing to aggregate).
		dnf := func(err error, bstcOK bool) *cvResult {
			rec.DNF = true
			rec.DNFReason = stopReason(err)
			tspan.AddEvent("dnf:" + rec.DNFReason)
			res.err = err
			res.dnf = true
			res.failed = !bstcOK
			return res
		}
		if t.splitErr != nil {
			if fault.IsCancellation(t.splitErr) {
				return dnf(t.splitErr, false)
			}
			return fail(fmt.Errorf("eval: size %s test %d: %w", t.size.Label, t.test, t.splitErr))
		}
		rec.PhasesMS = map[string]float64{}
		dctx, disc := trace.StartLayer(tctx, reg, "discretize")
		ps, err := PrepareWorkers(dctx, cfg.Data, t.sp, workers)
		endPhase(rec.PhasesMS, disc)
		if err != nil {
			if fault.IsCancellation(err) {
				return dnf(err, false)
			}
			return fail(fmt.Errorf("eval: size %s test %d: %w", t.size.Label, t.test, err))
		}
		rec.GenesAfterDiscretization = ps.GenesAfterDiscretization
		res.genesAfter = ps.GenesAfterDiscretization
		b, err := RunBSTCWorkers(tctx, ps, cfg.BSTCOpts, workers)
		if err != nil {
			return fail(fmt.Errorf("eval: size %s test %d: BSTC: %w", t.size.Label, t.test, err))
		}
		rec.BSTCAccuracy = obs.Float64Ptr(b.Accuracy)
		maps.Copy(rec.PhasesMS, b.PhasesMS)
		res.bstc = b
		if cfg.RunRCBT {
			rc, err := RunRCBT(tctx, ps, cfg.RCBT, cfg.Cutoff, cfg.NLFallback)
			maps.Copy(rec.PhasesMS, rc.PhasesMS)
			rec.TopkDNF = rc.TopkDNF
			rec.RCBTDNF = rc.RCBTDNF
			rec.DNFReason = rc.DNFReason
			rec.NLUsed = rc.NLUsed
			rec.NLFallback = rc.NLFallback
			if err != nil {
				return fail(fmt.Errorf("eval: size %s test %d: %w", t.size.Label, t.test, err))
			}
			if rc.Finished() {
				rec.RCBTAccuracy = obs.Float64Ptr(rc.Accuracy)
			}
			res.rcbt = rc
			// A context stop inside a phase: the BSTC half of this test
			// stands, the RCBT half is a DNF, and the study winds down.
			switch rc.DNFReason {
			case "deadline":
				return dnf(fault.ErrDeadline, true)
			case "canceled":
				return dnf(fault.ErrCanceled, true)
			}
		}
		return res
	}

	// emit writes the record and journals finished tests. Journaling stops
	// at the first failed or DNF record so the journal stays a truthful
	// contiguous prefix of completed tests.
	emit := func(i int, res *cvResult) {
		cfg.RunLog.Emit(res.rec)
		if res.err == nil {
			journal.append(i, res, cfg.RunRCBT)
		} else {
			journal.stop()
		}
	}

	emitted := start
	if workers <= 1 {
		for i := start; i < total; i++ {
			if err := fault.CtxErr(ctx); err != nil {
				break
			}
			res := runTest(draw(i), 1)
			results[i] = res
			emit(i, res)
			emitted = i + 1
			if res.err == nil || res.contained {
				continue
			}
			if res.dnf {
				break
			}
			return nil, res.err
		}
	} else {
		n, err := runPool(ctx, cfg, start, results, draw, runTest, emit, workers)
		emitted = n
		if err != nil {
			return nil, err
		}
	}
	return buildResults(cfg, results, emitted), nil
}

// buildResults folds the emitted prefix of per-test results into per-size
// aggregates. A truncated study (context stop) yields a truncated aggregate.
func buildResults(cfg CVConfig, results []*cvResult, emitted int) []SizeResult {
	var out []SizeResult
	i := 0
	for _, size := range cfg.Sizes {
		if i >= emitted {
			break
		}
		sr := SizeResult{Size: size}
		for test := 0; test < cfg.Tests && i < emitted; test++ {
			res := results[i]
			i++
			if res == nil {
				return out
			}
			sr.GenesAfter = append(sr.GenesAfter, res.genesAfter)
			sr.BSTC = append(sr.BSTC, res.bstc)
			sr.Failed = append(sr.Failed, res.failed)
			if cfg.RunRCBT {
				sr.RCBT = append(sr.RCBT, res.rcbt)
			}
		}
		out = append(out, sr)
	}
	return out
}

// runPool evaluates tasks start.. on a bounded pool of workers with
// first-error-wins cancellation. Finished results are stored by task index
// and the contiguous completed prefix is emitted in task order, halting at
// (and including) the first errored record. The feeder draws splits and
// dispatches indices in order, so the unstarted tasks always form a suffix,
// the lowest-index error is always reached, and a stopped study stops
// drawing splits immediately — nothing after the first error is emitted,
// matching the serial protocol, which would never have run those tests.
//
// Contained panics do not stop the pool: their records emit and the
// remaining tests keep running. A context stop (DNF results) stops dispatch
// like an error, but runPool maps it to a truncated success: the emitted
// count is returned with a nil error.
func runPool(ctx context.Context, cfg CVConfig, start int, results []*cvResult, draw func(int) cvTask, runTest func(cvTask, int) *cvResult, emit func(int, *cvResult), workers int) (int, error) {
	total := len(results)
	if workers > total-start {
		workers = total - start
	}
	var (
		mu       sync.Mutex
		nextEmit = start
		firstErr error
		wg       sync.WaitGroup
		stopOnce sync.Once
	)
	stop := make(chan struct{})
	// tasks[i] is written by the feeder before index i is sent on feed; the
	// channel send orders the write before the receiving worker's read.
	tasks := make([]cvTask, total)
	store := func(i int, res *cvResult) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		for firstErr == nil && nextEmit < total && results[nextEmit] != nil {
			r := results[nextEmit]
			nextEmit++
			emit(nextEmit-1, r)
			if r.err != nil && !r.contained {
				firstErr = r.err
			}
		}
	}
	feed := make(chan int)
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range feed {
				res := runTest(tasks[i], worker)
				if res.err != nil && !res.contained {
					stopOnce.Do(func() { close(stop) })
				}
				store(i, res)
			}
		}(w)
	}
dispatch:
	for i := start; i < total; i++ {
		tasks[i] = draw(i)
		select {
		case feed <- i:
		case <-stop:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	if fault.IsCancellation(firstErr) {
		return nextEmit, nil
	}
	return nextEmit, firstErr
}

// BSTCAccuracies returns the per-test BSTC accuracies, skipping failed
// tests (contained panics, early context stops).
func (sr SizeResult) BSTCAccuracies() []float64 {
	out := make([]float64, 0, len(sr.BSTC))
	for i, b := range sr.BSTC {
		if sr.ok(i) {
			out = append(out, b.Accuracy)
		}
	}
	return out
}

// MeanBSTCTime averages BSTC build+classify time over the tests that ran.
func (sr SizeResult) MeanBSTCTime() time.Duration {
	n := 0
	var total time.Duration
	for i, b := range sr.BSTC {
		if sr.ok(i) {
			total += b.Elapsed
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// RCBTFinishedAccuracies returns accuracies over the tests RCBT finished —
// the basis of the paper's Tables 5 and 7 means.
func (sr SizeResult) RCBTFinishedAccuracies() []float64 {
	var out []float64
	for i, o := range sr.RCBT {
		if sr.ok(i) && o.Finished() {
			out = append(out, o.Accuracy)
		}
	}
	return out
}

// BSTCAccuraciesWhereRCBTFinished pairs Table 5/7's convention: BSTC means
// over exactly the tests RCBT completed (all tests when RCBT never ran or
// never finished, matching the paper's fallback of reporting BSTC over all
// 25).
func (sr SizeResult) BSTCAccuraciesWhereRCBTFinished() []float64 {
	if len(sr.RCBT) == 0 {
		return sr.BSTCAccuracies()
	}
	var out []float64
	for i, o := range sr.RCBT {
		if sr.ok(i) && o.Finished() {
			out = append(out, sr.BSTC[i].Accuracy)
		}
	}
	if len(out) == 0 {
		return sr.BSTCAccuracies()
	}
	return out
}

// MeanTopkTime averages Top-k mining time; truncated reports whether any
// test hit the cutoff (the paper prints such averages as "≥").
func (sr SizeResult) MeanTopkTime() (mean time.Duration, truncated bool) {
	n := 0
	var total time.Duration
	for i, o := range sr.RCBT {
		if !sr.ok(i) {
			continue
		}
		total += o.TopkTime
		truncated = truncated || o.TopkDNF
		n++
	}
	if n == 0 {
		return 0, false
	}
	return total / time.Duration(n), truncated
}

// MeanRCBTTime averages the RCBT phase over the tests Top-k finished, as
// the paper's Tables 4 and 6 do; truncated reports any DNF among them.
func (sr SizeResult) MeanRCBTTime() (mean time.Duration, truncated bool) {
	n := 0
	var total time.Duration
	for i, o := range sr.RCBT {
		if !sr.ok(i) || o.TopkDNF {
			continue
		}
		total += o.RCBTTime
		n++
		truncated = truncated || o.RCBTDNF
	}
	if n == 0 {
		return 0, false
	}
	return total / time.Duration(n), truncated
}

// DNFCounts returns the paper's "# RCBT DNF" cell: RCBT DNFs over the
// number of tests for which Top-k finished, plus whether any finished test
// used the nl fallback (the tables' † marker).
func (sr SizeResult) DNFCounts() (rcbtDNF, topkFinished int, nlLowered bool) {
	for i, o := range sr.RCBT {
		if !sr.ok(i) || o.TopkDNF {
			continue
		}
		topkFinished++
		if o.RCBTDNF {
			rcbtDNF++
		}
		nlLowered = nlLowered || o.NLFallback
	}
	return rcbtDNF, topkFinished, nlLowered
}

// DefaultRCBTConfig mirrors rcbt.DefaultConfig for harness convenience.
func DefaultRCBTConfig() rcbt.Config { return rcbt.DefaultConfig() }
