// Package experiments regenerates every table and figure of the BSTC
// paper's §6 evaluation on the synthetic dataset profiles: Table 2 (dataset
// inventory), Table 3 (given-training accuracy), Figures 4-7
// (cross-validation boxplots), Tables 4/6 (run times with cutoffs and DNF
// counts), Tables 5/7 (mean accuracies over RCBT-finished tests), the
// §6.2.4 support-tuning narrative, and the §8 ablations.
//
// Both cmd/bstcbench and the repository's bench_test.go drive these
// runners, so the printed artifacts are identical between the CLI and
// `go test -bench`.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bstc/internal/core"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/rcbt"
	"bstc/internal/synth"
)

// Config scopes one experiment run.
type Config struct {
	Scale synth.Scale
	// Tests per training size in cross-validation studies (paper: 25).
	Tests int
	// Cutoff bounds each Top-k/RCBT phase, standing in for the paper's 2
	// hours at reduced scale.
	Cutoff time.Duration
	Seed   int64
	// RCBT carries the paper's parameters (support 0.7, k 10, nl 20).
	RCBT rcbt.Config
	// NLFallback is the paper's lowered nl (2).
	NLFallback int
	// Workers bounds concurrent cross-validation tests (and stripes
	// discretization and batch classification inside each); 0 or 1 runs
	// one worker on the same pool. Top-k mining inside a test is always
	// serial. Results are identical for every value — see eval.CVConfig.
	Workers int
	// RunLog, when non-nil, receives one JSONL record per cross-validation
	// test (see obs.RunRecord).
	RunLog *obs.RunLog
	// Checkpoint, when non-empty, is a directory holding one CV journal per
	// study (<name>.cv.jsonl). An interrupted study resumes from its journal
	// with byte-identical aggregates; see eval.CVConfig.Checkpoint.
	Checkpoint string
}

// Default returns scale-appropriate settings: the paper's parameter values
// with test counts and cutoffs shrunk alongside the data.
func Default(scale synth.Scale) Config {
	cfg := Config{
		Scale:      scale,
		Seed:       20080407, // ICDE'08 week; any fixed value works
		RCBT:       rcbt.DefaultConfig(),
		NLFallback: 2,
	}
	switch scale {
	case synth.Paper:
		cfg.Tests = 25
		cfg.Cutoff = 2 * time.Hour
	case synth.Medium:
		cfg.Tests = 10
		cfg.Cutoff = 2 * time.Minute
	default:
		cfg.Tests = 5
		cfg.Cutoff = 8 * time.Second
	}
	return cfg
}

// fmtDuration renders a duration in the tables' seconds-with-decimals
// style.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtMaybeTruncated prefixes "≥" when a cutoff truncated the average, as
// the paper's Tables 4 and 6 do.
func fmtMaybeTruncated(d time.Duration, truncated bool, dagger bool) string {
	s := fmtDuration(d)
	if truncated {
		s = ">= " + s
	}
	if dagger {
		s += " (+)" // the tables' † marker: nl lowered to the fallback
	}
	return s
}

func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// bstcOpts returns the paper-default BSTC evaluation options.
func bstcOpts() *core.EvalOptions { return &core.EvalOptions{} }

// studySizes builds the §6.2 training sizes for a profile.
func studySizes(name string) ([]eval.TrainSize, error) {
	given, err := synth.GivenTrainingCounts(name)
	if err != nil {
		return nil, err
	}
	return eval.PaperTrainSizes(given), nil
}

// Study is one dataset's full cross-validation run, reused by its figure
// and its runtime/accuracy tables.
type Study struct {
	Name    string
	Profile synth.Profile
	Results []eval.SizeResult
}

// RunStudy executes the §6.2 protocol on the named profile. A context
// deadline or cancellation ends the study early with the completed prefix of
// tests (the rest become DNF records); with cfg.Checkpoint set, a later run
// resumes where this one stopped.
func RunStudy(ctx context.Context, cfg Config, name string, withRCBT bool) (*Study, error) {
	profile, err := synth.ProfileByName(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	data, err := profile.Generate()
	if err != nil {
		return nil, err
	}
	sizes, err := studySizes(name)
	if err != nil {
		return nil, err
	}
	checkpoint := ""
	if cfg.Checkpoint != "" {
		if err := os.MkdirAll(cfg.Checkpoint, 0o755); err != nil {
			return nil, fmt.Errorf("experiments: checkpoint dir: %w", err)
		}
		checkpoint = filepath.Join(cfg.Checkpoint, name+".cv.jsonl")
	}
	results, err := eval.RunCV(ctx, eval.CVConfig{
		Data:       data,
		Sizes:      sizes,
		Tests:      cfg.Tests,
		Seed:       cfg.Seed,
		BSTCOpts:   bstcOpts(),
		RunRCBT:    withRCBT,
		RCBT:       cfg.RCBT,
		Cutoff:     cfg.Cutoff,
		NLFallback: cfg.NLFallback,
		Workers:    cfg.Workers,
		Dataset:    name,
		RunLog:     cfg.RunLog,
		Checkpoint: checkpoint,
	})
	if err != nil {
		return nil, err
	}
	return &Study{Name: name, Profile: profile, Results: results}, nil
}

// line writes one formatted line, ignoring write errors (harness output).
func line(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}
