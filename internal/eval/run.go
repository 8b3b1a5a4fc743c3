package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bstc/internal/carminer"
	"bstc/internal/cba"
	"bstc/internal/core"
	"bstc/internal/ep"
	"bstc/internal/fault"
	"bstc/internal/forest"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/rcbt"
	"bstc/internal/stats"
	"bstc/internal/svm"
	"bstc/internal/tree"
)

// BSTCOutcome records one BSTC run: BST construction for every class plus
// classification of all test samples, timed together as in Table 4's "BSTC"
// column ("the average time required to build both class 0 and class 1 BSTs
// and then use them to classify all the test samples").
type BSTCOutcome struct {
	Accuracy float64
	Elapsed  time.Duration
	// PhasesMS holds the run's layer durations in fractional milliseconds:
	// bstc (= Elapsed) and its parts bstc/train and bstc/classify.
	PhasesMS map[string]float64
}

// RunBSTCWorkers trains BSTC on a prepared split and classifies its test
// samples over up to workers goroutines (≤ 1 classifies inline). Each query
// is pure against the trained tables, so predictions — and the outcome —
// are identical for any worker count. A sampled span on ctx gains the bstc
// layer's spans.
func RunBSTCWorkers(ctx context.Context, ps *Prepared, opts *core.EvalOptions, workers int) (BSTCOutcome, error) {
	out := BSTCOutcome{PhasesMS: map[string]float64{}}
	ctx, run := trace.StartLayer(ctx, reg, "bstc")
	_, train := trace.StartLayer(ctx, reg, "bstc/train")
	cl, err := core.Train(ps.TrainBool, opts)
	train.SetError(err)
	endPhase(out.PhasesMS, train)
	if err != nil {
		run.End()
		return BSTCOutcome{}, err
	}
	_, classify := trace.StartLayer(ctx, reg, "bstc/classify")
	preds := cl.ClassifyBatchParallel(ps.TestBool, max(workers, 1))
	endPhase(out.PhasesMS, classify)
	out.Accuracy = stats.Accuracy(preds, ps.TestBool.Classes)
	out.Elapsed = endPhase(out.PhasesMS, run)
	return out, nil
}

// endPhase ends l and adds its duration to phasesMS under the layer's
// name, in fractional milliseconds — the run record's phases_ms form.
func endPhase(phasesMS map[string]float64, l trace.Layer) time.Duration {
	d := l.End()
	phasesMS[l.Name()] += float64(d) / float64(time.Millisecond)
	return d
}

// RCBTOutcome records one Top-k + RCBT run with the paper's cutoff
// protocol: the two phases are timed separately (Tables 4 and 6 report
// "Top-k" and "RCBT" columns) and a phase that hits its cutoff is a DNF
// whose reported time is the cutoff (a lower bound, printed with "≥").
type RCBTOutcome struct {
	TopkTime time.Duration
	TopkDNF  bool

	RCBTTime time.Duration
	RCBTDNF  bool
	// DNFReason says what stopped a DNF'd phase: "cutoff" for the paper's
	// per-phase budget, "deadline" / "canceled" for the run context. Empty
	// when both phases finished.
	DNFReason string
	// NLUsed is the nl value the run finished (or gave up) with; the paper
	// lowers nl from 20 to 2 when lower-bound mining cannot complete
	// (marked † in its tables).
	NLUsed     int
	NLFallback bool

	// Accuracy is valid only when both phases finished.
	Accuracy float64

	// PhasesMS holds the raw measured layers (rcbt/topk, rcbt/build,
	// rcbt/classify) in fractional milliseconds. Unlike TopkTime/RCBTTime
	// these are never clamped to the cutoff and include abandoned
	// nl-fallback attempts.
	PhasesMS map[string]float64
}

// Finished reports whether both phases completed within their cutoffs.
func (o RCBTOutcome) Finished() bool { return !o.TopkDNF && !o.RCBTDNF }

// RunRCBT executes the full Top-k → lower bounds → classify pipeline with a
// per-phase cutoff. When cutoff is 0 the run is unbounded. nlFallback, when
// > 0, retries a DNF'd build phase once with that smaller nl (the paper's
// nl=20 → nl=2 adjustment).
//
// A phase stopping at its cutoff is not an error: it is reported through
// the outcome's DNF flags with the phase time clamped to the cutoff (the
// tables' "≥" convention). The same applies to a context deadline or
// cancellation, except the phase time is not clamped (the stop can come
// before the cutoff) and DNFReason records the cause. The returned error is
// reserved for real failures — invalid configuration, degenerate training
// data — which previously drowned in the DNF bookkeeping.
func RunRCBT(ctx context.Context, ps *Prepared, cfg rcbt.Config, cutoff time.Duration, nlFallback int) (RCBTOutcome, error) {
	out := RCBTOutcome{NLUsed: cfg.NL, PhasesMS: map[string]float64{}}

	budget := func() carminer.Budget {
		if cutoff <= 0 {
			return carminer.Budget{}
		}
		return carminer.Budget{Deadline: obs.Now().Add(cutoff)}
	}

	// Phase 1: Top-k covering rule group mining.
	mineCfg := cfg
	mineCfg.Budget = budget()
	mctx, topk := trace.StartLayer(ctx, reg, "rcbt/topk")
	mined, err := rcbt.Mine(mctx, ps.TrainBool, mineCfg)
	topk.SetError(err)
	out.TopkTime = endPhase(out.PhasesMS, topk)
	if err != nil {
		reason := stopReason(err)
		if reason == "" {
			return out, fmt.Errorf("eval: top-k mining: %w", err)
		}
		out.TopkDNF = true
		out.DNFReason = reason
		if reason == "cutoff" && cutoff > 0 {
			out.TopkTime = cutoff
		}
		return out, nil
	}

	// Phase 2: lower-bound mining + classifier assembly + classification.
	// On an nl fallback the build layer restarts: the reported RCBT time
	// covers only the attempt that produced the classifier, as in the
	// paper's † runs (the abandoned attempt still counts in PhasesMS, and
	// its span carries an nl_fallback event).
	buildCfg := cfg
	buildCfg.Budget = budget()
	bctx, build := trace.StartLayer(ctx, reg, "rcbt/build")
	cl, err := rcbt.Build(bctx, ps.TrainBool, mined, buildCfg)
	// The nl fallback retries only cutoff expiries: retrying after a context
	// deadline or cancellation could not finish either.
	if err != nil && nlFallback > 0 && nlFallback < cfg.NL && errors.Is(err, carminer.ErrBudgetExceeded) {
		build.AddEvent("nl_fallback")
		endPhase(out.PhasesMS, build)
		out.NLUsed = nlFallback
		out.NLFallback = true
		buildCfg.NL = nlFallback
		buildCfg.Budget = budget()
		bctx, build = trace.StartLayer(ctx, reg, "rcbt/build")
		cl, err = rcbt.Build(bctx, ps.TrainBool, mined, buildCfg)
	}
	build.SetError(err)
	out.RCBTTime = endPhase(out.PhasesMS, build)
	if err != nil {
		reason := stopReason(err)
		if reason == "" {
			return out, fmt.Errorf("eval: rcbt build: %w", err)
		}
		out.RCBTDNF = true
		out.DNFReason = reason
		if reason == "cutoff" && cutoff > 0 {
			out.RCBTTime = cutoff
		}
		return out, nil
	}
	_, classify := trace.StartLayer(ctx, reg, "rcbt/classify")
	preds := cl.ClassifyBatch(ps.TestBool)
	out.RCBTTime += endPhase(out.PhasesMS, classify)
	out.Accuracy = stats.Accuracy(preds, ps.TestBool.Classes)
	return out, nil
}

// RunSVM trains and evaluates the SVM baseline on the continuous selected
// genes.
func RunSVM(ps *Prepared, cfg svm.Config) (float64, error) {
	cl, err := svm.Train(ps.TrainCont, cfg)
	if err != nil {
		return 0, err
	}
	return stats.Accuracy(cl.PredictBatch(ps.TestCont), ps.TestCont.Classes), nil
}

// RunForest trains and evaluates the random forest baseline on the
// continuous selected genes.
func RunForest(ps *Prepared, cfg forest.Config) (float64, error) {
	cl, err := forest.Train(ps.TrainCont, cfg)
	if err != nil {
		return 0, err
	}
	return stats.Accuracy(cl.PredictBatch(ps.TestCont), ps.TestCont.Classes), nil
}

// RunCBA trains and evaluates the CBA baseline on the discretized items.
func RunCBA(ps *Prepared, cfg cba.Config) (float64, error) {
	cl, err := cba.Train(ps.TrainBool, cfg)
	if err != nil {
		return 0, err
	}
	return stats.Accuracy(cl.ClassifyBatch(ps.TestBool), ps.TestBool.Classes), nil
}

// TreeMode selects which member of the C4.5 family RunTree evaluates.
type TreeMode int

// C4.5-family modes (the paper's Weka 3.2 comparison).
const (
	SingleTree TreeMode = iota
	BaggedTrees
	BoostedTrees
)

// RunTree trains and evaluates a C4.5-family classifier (gain-ratio trees)
// on the continuous selected genes. Ensemble modes use size members.
func RunTree(ps *Prepared, mode TreeMode, size int, seed int64) (float64, error) {
	X, y := ps.TrainCont.Values, ps.TrainCont.Classes
	nc := ps.TrainCont.NumClasses()
	opt := tree.Options{Criterion: tree.GainRatio, MinLeaf: 2}
	predict := func(x []float64) int { return 0 }
	switch mode {
	case SingleTree:
		tr, err := tree.Grow(X, y, nc, nil, opt)
		if err != nil {
			return 0, err
		}
		predict = tr.Predict
	case BaggedTrees:
		ens, err := tree.Bag(X, y, nc, size, opt, seed)
		if err != nil {
			return 0, err
		}
		predict = ens.Predict
	case BoostedTrees:
		// Weak learners: depth-limited trees, per AdaBoost custom.
		weak := opt
		weak.MaxDepth = 3
		ens, err := tree.Boost(X, y, nc, size, weak, seed)
		if err != nil {
			return 0, err
		}
		predict = ens.Predict
	default:
		return 0, fmt.Errorf("eval: unknown tree mode %d", mode)
	}
	preds := make([]int, ps.TestCont.NumSamples())
	for i, x := range ps.TestCont.Values {
		preds[i] = predict(x)
	}
	return stats.Accuracy(preds, ps.TestCont.Classes), nil
}

// RunMCBAR trains and evaluates §4.2's rule-explicit classifier.
func RunMCBAR(ps *Prepared, k int, opts *core.EvalOptions) (float64, error) {
	cl, err := core.TrainMCBAR(ps.TrainBool, k, opts)
	if err != nil {
		return 0, err
	}
	return stats.Accuracy(cl.ClassifyBatch(ps.TestBool), ps.TestBool.Classes), nil
}

// RunJEP trains and evaluates the jumping-emerging-pattern classifier (the
// §7 TOP-RULES/MBD-LLBORDER family) under a mining budget.
func RunJEP(ctx context.Context, ps *Prepared, budget carminer.Budget) (float64, error) {
	cl, err := ep.Train(ctx, ps.TrainBool, budget)
	if err != nil {
		return 0, err
	}
	return stats.Accuracy(cl.ClassifyBatch(ps.TestBool), ps.TestBool.Classes), nil
}

// stopReason classifies an orderly mining stop: "cutoff" for the per-phase
// budget, "deadline" / "canceled" for the run context. Real failures return
// "".
func stopReason(err error) string {
	switch {
	case errors.Is(err, carminer.ErrBudgetExceeded):
		return "cutoff"
	case errors.Is(err, fault.ErrDeadline):
		return "deadline"
	case errors.Is(err, fault.ErrCanceled):
		return "canceled"
	}
	return ""
}
