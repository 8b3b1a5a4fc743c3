package eval

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/rcbt"
)

// resilienceCVConfig is the shared study the chaos tests perturb: small
// enough to run in milliseconds, large enough to have a prefix, a middle and
// a tail.
func resilienceCVConfig(t *testing.T, withRCBT bool) CVConfig {
	t.Helper()
	cfg := CVConfig{
		Data:    toyData(t, 7),
		Sizes:   []TrainSize{{Label: "40%", Frac: 0.4}, {Label: "fixed", Counts: []int{8, 8}}},
		Tests:   3,
		Seed:    9,
		Dataset: "toy",
	}
	if withRCBT {
		cfg.RunRCBT = true
		cfg.RCBT = rcbt.Config{MinSupport: 0.7, K: 2, NL: 3}
		cfg.Cutoff = time.Minute
		cfg.NLFallback = 2
	}
	return cfg
}

// TestRunCVDeadlineDuringMiningIsDNFNotError pins the tentpole's DNF
// contract deterministically (no wall-clock races): a deadline surfacing
// inside Top-k mining must come back as a DNF run record that keeps the
// already-measured BSTC accuracy, truncate the study, and leave RunCV's
// error nil.
func TestRunCVDeadlineDuringMiningIsDNFNotError(t *testing.T) {
	in := fault.NewInjector(1)
	in.Set("carminer.dfs", fault.Rule{Prob: 1, MaxFires: 1, Err: fault.ErrDeadline})
	fault.Enable(in)
	defer fault.Disable()

	var buf bytes.Buffer
	cfg := resilienceCVConfig(t, true)
	cfg.RunLog = obs.NewRunLog(&buf)
	results, err := RunCV(context.Background(), cfg)
	if err != nil {
		t.Fatalf("a deadline must not be an error, got %v", err)
	}
	recs := runlogLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (the study winds down at the first DNF)", len(recs))
	}
	rec := recs[0]
	if !rec.DNF || rec.DNFReason != "deadline" {
		t.Fatalf("record is not a deadline DNF: %+v", rec)
	}
	if rec.Error != "" {
		t.Errorf("DNF record must not carry an error, got %q", rec.Error)
	}
	if rec.BSTCAccuracy == nil {
		t.Error("BSTC finished before the deadline; its accuracy must survive on the record")
	}
	if len(results) != 1 || len(results[0].BSTC) != 1 {
		t.Fatalf("want the completed prefix (1 size, 1 test), got %+v", results)
	}
	if !results[0].ok(0) {
		t.Error("BSTC completed, so the test must not be marked failed")
	}
	if accs := results[0].RCBTFinishedAccuracies(); len(accs) != 0 {
		t.Errorf("RCBT never finished, want no finished accuracies, got %v", accs)
	}
}

// TestRunCVDeadlineExitsPromptly is the timing half of the deadline
// contract: with a real expiring context and an injected slow phase, RunCV
// must return well within the deadline plus its amortized check interval —
// not run the study to completion.
func TestRunCVDeadlineExitsPromptly(t *testing.T) {
	in := fault.NewInjector(2)
	// The first discretization chunk sleeps past the deadline; the next
	// amortized poll must then stop the whole study.
	in.Set("discretize.fit", fault.Rule{Prob: 1, MaxFires: 1, Latency: 150 * time.Millisecond})
	fault.Enable(in)
	defer fault.Disable()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	cfg := resilienceCVConfig(t, false)
	cfg.Tests = 25 // would take far longer than the deadline if ignored
	cfg.RunLog = obs.NewRunLog(&buf)
	start := time.Now()
	_, err := RunCV(ctx, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline must not be an error, got %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("RunCV took %v after a 50ms deadline", elapsed)
	}
	recs := runlogLines(t, &buf)
	if len(recs) != 1 || !recs[0].DNF || recs[0].DNFReason != "deadline" {
		t.Fatalf("want exactly one deadline-DNF record, got %+v", recs)
	}
}

// TestRunCVCancelStopsAfterCurrentTest cancels between tests and checks the
// completed prefix comes back error-free with no further tests run.
func TestRunCVCancelStopsAfterCurrentTest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	cfg := resilienceCVConfig(t, false)
	// Cancel as soon as the first record is written.
	cfg.RunLog = obs.NewRunLog(writerFunc(func(p []byte) (int, error) {
		cancel()
		return buf.Write(p)
	}))
	results, err := RunCV(ctx, cfg)
	if err != nil {
		t.Fatalf("cancellation must not be an error, got %v", err)
	}
	recs := runlogLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records after cancel-at-first-emit, want 1", len(recs))
	}
	if len(results) != 1 || len(results[0].BSTC) != 1 {
		t.Fatalf("want the 1-test prefix, got %+v", results)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRunCVContainedPanic injects a panic into the discretization phase,
// then into a split draw, and checks containment at one worker and at
// three: the poisoned test degrades to a failed record naming the site that
// recovered the panic, with the stack in the run log, every other test
// still succeeds, and RunCV returns no error. The fit's own pool recovers
// its panic at every worker count, and a draw runs on the worker that
// claims its test.
func TestRunCVContainedPanic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, site := range []string{"discretize.fit", "eval.split"} {
				in := fault.NewInjector(3)
				in.Set(site, fault.Rule{Prob: 1, MaxFires: 1, Panic: "chaos"})
				fault.Enable(in)

				var buf bytes.Buffer
				cfg := resilienceCVConfig(t, false)
				cfg.Workers = workers
				cfg.RunLog = obs.NewRunLog(&buf)
				results, err := RunCV(context.Background(), cfg)
				fault.Disable()
				if err != nil {
					t.Fatalf("%s: a contained panic must not abort the study, got %v", site, err)
				}
				recs := runlogLines(t, &buf)
				total := cfg.Tests * len(cfg.Sizes)
				if len(recs) != total {
					t.Fatalf("%s: got %d records, want %d (the study continues past the panic)", site, len(recs), total)
				}
				panicked := 0
				for _, rec := range recs {
					if rec.Error == "" {
						continue
					}
					panicked++
					if !strings.Contains(rec.Error, "panic in "+site) {
						t.Errorf("failed record does not name the panic at %s: %q", site, rec.Error)
					}
					if rec.Stack == "" {
						t.Errorf("%s: failed record lost the panic stack", site)
					}
				}
				if panicked != 1 {
					t.Fatalf("%s: %d records failed, want exactly the poisoned one", site, panicked)
				}
				var okCount, failCount int
				for _, sr := range results {
					for i := range sr.BSTC {
						if sr.ok(i) {
							okCount++
						} else {
							failCount++
						}
					}
					if len(sr.BSTCAccuracies()) != len(sr.BSTC)-countFailed(sr) {
						t.Errorf("%s: aggregates must skip the failed test", site)
					}
				}
				if failCount != 1 || okCount != total-1 {
					t.Fatalf("%s: failed/ok = %d/%d, want 1/%d", site, failCount, okCount, total-1)
				}
			}
		})
	}
}

func countFailed(sr SizeResult) int {
	n := 0
	for _, f := range sr.Failed {
		if f {
			n++
		}
	}
	return n
}

// TestRunCVPoolErrorStopsDrawsAndGoroutines is the satellite regression for
// the pool's first-error wind-down: a failure on an early test must stop the
// split pre-draw loop promptly (not burn through every remaining size's
// draws) and leave no goroutines behind.
func TestRunCVPoolErrorStopsDrawsAndGoroutines(t *testing.T) {
	errBoom := errors.New("boom")
	in := fault.NewInjector(4)
	// Second split draw fails with a real (non-cancellation) error.
	in.Set("eval.split", fault.Rule{Prob: 1, SkipHits: 1, MaxFires: 1, Err: errBoom})
	fault.Enable(in)
	defer fault.Disable()

	before := runtime.NumGoroutine()
	cfg := resilienceCVConfig(t, false)
	cfg.Tests = 8 // 16 tasks total
	cfg.Workers = 4
	_, err := RunCV(context.Background(), cfg)
	if !errors.Is(err, errBoom) {
		t.Fatalf("got %v, want the injected split failure", err)
	}
	hits := in.Counts()["eval.split"].Hits
	if max := int64(2 + cfg.Workers + 1); hits > max {
		t.Errorf("split pre-draw ran %d draws after an early failure, want <= %d", hits, max)
	}
	// The pool must be fully drained: give exiting goroutines a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// --- checkpoint/resume ---

// accuracyView projects the deterministic half of a study's results — the
// fields the rendered figures and accuracy tables are built from. Times are
// excluded: they are measurements, not reproducible values.
type accuracyView struct {
	Label      string
	BSTC       []float64
	RCBT       []float64
	GenesAfter []int
	Failed     []bool
	DNF        []bool
}

func viewOf(results []SizeResult) []accuracyView {
	var out []accuracyView
	for _, sr := range results {
		v := accuracyView{
			Label:      sr.Size.Label,
			BSTC:       sr.BSTCAccuracies(),
			RCBT:       sr.RCBTFinishedAccuracies(),
			GenesAfter: sr.GenesAfter,
			Failed:     sr.Failed,
		}
		for _, o := range sr.RCBT {
			v.DNF = append(v.DNF, !o.Finished())
		}
		out = append(out, v)
	}
	return out
}

// TestRunCVCheckpointResumeDeterministic interrupts a journaled study by
// truncating its checkpoint to a prefix, resumes, and checks the resumed
// aggregates are identical to an uninterrupted run — with the replayed
// prefix flagged on its run records.
func TestRunCVCheckpointResumeDeterministic(t *testing.T) {
	dir := t.TempDir()
	cfg := resilienceCVConfig(t, true)

	reference, err := RunCV(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	cp := filepath.Join(dir, "study.cv.jsonl")
	cfg.Checkpoint = cp
	if _, err := RunCV(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	// Keep the header and the first two entries: a mid-study interruption.
	raw, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	if err := os.WriteFile(cp, bytes.Join(lines[:3], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cfg.RunLog = obs.NewRunLog(&buf)
	resumed, err := RunCV(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viewOf(resumed), viewOf(reference)) {
		t.Fatalf("resumed aggregates differ from the uninterrupted run:\n%+v\nvs\n%+v",
			viewOf(resumed), viewOf(reference))
	}
	recs := runlogLines(t, &buf)
	if len(recs) != cfg.Tests*len(cfg.Sizes) {
		t.Fatalf("got %d records, want %d", len(recs), cfg.Tests*len(cfg.Sizes))
	}
	for i, rec := range recs {
		if want := i < 2; rec.Replayed != want {
			t.Errorf("record %d: Replayed = %v, want %v", i, rec.Replayed, want)
		}
	}

	// The journal must now hold the full study again: a second resume
	// replays everything and computes nothing.
	in := fault.NewInjector(5)
	in.Set("eval.split", fault.Rule{}) // count draws without firing
	fault.Enable(in)
	defer fault.Disable()
	cfg.RunLog = nil
	again, err := RunCV(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viewOf(again), viewOf(reference)) {
		t.Fatal("full-replay aggregates differ from the uninterrupted run")
	}
}

// TestRunCVCheckpointMismatchRefused: a journal from a different study
// (here: another seed) must be refused, not spliced in.
func TestRunCVCheckpointMismatchRefused(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "study.cv.jsonl")
	cfg := resilienceCVConfig(t, false)
	cfg.Checkpoint = cp
	if _, err := RunCV(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	if _, err := RunCV(context.Background(), cfg); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("got %v, want ErrCheckpointMismatch", err)
	}
	// A file that is not a journal at all gets the same refusal.
	if err := os.WriteFile(cp, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Seed--
	if _, err := RunCV(context.Background(), cfg); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("got %v, want ErrCheckpointMismatch for a foreign file", err)
	}
}

// TestRunCVCheckpointTornTail simulates the SIGKILL-mid-write case: a
// journal whose last line is torn must resume from the intact prefix.
func TestRunCVCheckpointTornTail(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "study.cv.jsonl")
	cfg := resilienceCVConfig(t, false)
	cfg.Checkpoint = cp
	reference, err := RunCV(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	torn := append(bytes.Join(lines[:2], nil), []byte(`{"index":1,"genes_af`)...)
	if err := os.WriteFile(cp, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg.RunLog = obs.NewRunLog(&buf)
	resumed, err := RunCV(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viewOf(resumed), viewOf(reference)) {
		t.Fatal("resume after a torn tail diverged from the uninterrupted run")
	}
	recs := runlogLines(t, &buf)
	if !recs[0].Replayed || recs[1].Replayed {
		t.Errorf("want exactly the 1 intact entry replayed, got %v/%v", recs[0].Replayed, recs[1].Replayed)
	}
}

// --- SIGKILL subprocess resume ---

const killHelperEnv = "BSTC_EVAL_KILL_HELPER"

// killConfig is the study the subprocess runs: injected per-draw latency
// paces it so the parent can SIGKILL mid-study.
func killConfig(t *testing.T, checkpoint string) CVConfig {
	cfg := resilienceCVConfig(t, false)
	cfg.Tests = 6
	cfg.Checkpoint = checkpoint
	return cfg
}

// TestCheckpointKillHelper is the subprocess body, inert unless re-exec'd by
// TestRunCVCheckpointSurvivesSIGKILL.
func TestCheckpointKillHelper(t *testing.T) {
	cp := os.Getenv(killHelperEnv)
	if cp == "" {
		t.Skip("helper: run only as a subprocess")
	}
	in := fault.NewInjector(6)
	in.Set("eval.split", fault.Rule{Prob: 1, Latency: 40 * time.Millisecond})
	fault.Enable(in)
	defer fault.Disable()
	if _, err := RunCV(context.Background(), killConfig(t, cp)); err != nil {
		t.Fatal(err)
	}
}

// TestRunCVCheckpointSurvivesSIGKILL re-execs the test binary into a
// journaled study, SIGKILLs it once the journal holds some entries, resumes
// in-process and checks the aggregates match an uninterrupted run.
func TestRunCVCheckpointSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cp := filepath.Join(t.TempDir(), "study.cv.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCheckpointKillHelper$", "-test.v")
	cmd.Env = append(os.Environ(), killHelperEnv+"="+cp)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until at least two entries are journaled, then kill -9.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("journal never accumulated entries")
		}
		raw, err := os.ReadFile(cp)
		if err == nil && bytes.Count(raw, []byte("\n")) >= 3 { // header + 2 entries
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // ignore the kill error; reap the child

	var buf bytes.Buffer
	cfg := killConfig(t, cp)
	cfg.RunLog = obs.NewRunLog(&buf)
	resumed, err := RunCV(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}

	reference, err := RunCV(context.Background(), killConfig(t, filepath.Join(t.TempDir(), "ref.cv.jsonl")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viewOf(resumed), viewOf(reference)) {
		t.Fatalf("post-kill resume diverged from the uninterrupted run:\n%+v\nvs\n%+v",
			viewOf(resumed), viewOf(reference))
	}
	recs := runlogLines(t, &buf)
	replayed := 0
	for _, rec := range recs {
		if rec.Replayed {
			replayed++
		}
	}
	if replayed < 2 {
		t.Errorf("only %d records replayed; the journaled prefix was lost", replayed)
	}
	if len(recs) != cfg.Tests*len(cfg.Sizes) {
		t.Errorf("got %d records, want %d", len(recs), cfg.Tests*len(cfg.Sizes))
	}
}
