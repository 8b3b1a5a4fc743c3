package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bstc/internal/obs"
)

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-exp", "bogus"},
		{"-scale", "huge"},
		{"-exp", ""},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
}

func TestRunTable2(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-scale", "small"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunTable4RunlogTelemetry is the acceptance path: a table4 run with
// -runlog must produce valid JSONL whose records carry per-phase durations
// and a healthy spread of miner counters.
func TestRunTable4RunlogTelemetry(t *testing.T) {
	dir := t.TempDir()
	runlog := filepath.Join(dir, "runs.jsonl")
	mem := filepath.Join(dir, "mem.out")
	err := run([]string{"-exp", "table4", "-scale", "small", "-tests", "2", "-cutoff", "2s",
		"-quiet", "-runlog", runlog, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(runlog)
	if err != nil {
		t.Fatal(err)
	}
	type envelope struct {
		Msg string        `json:"msg"`
		Run obs.RunRecord `json:"run"`
	}
	counters := map[string]bool{}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var env envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		rec := env.Run
		if rec.Experiment != "cv" || rec.Dataset != "PC" {
			t.Errorf("line %d: experiment/dataset = %q/%q", lines, rec.Experiment, rec.Dataset)
		}
		for _, phase := range []string{"discretize", "bstc/train", "bstc/classify", "rcbt/topk"} {
			if _, ok := rec.PhasesMS[phase]; !ok {
				t.Errorf("line %d: missing phase %q in %v", lines, phase, rec.PhasesMS)
			}
		}
		if rec.BSTCAccuracy == nil {
			t.Errorf("line %d: missing BSTC accuracy", lines)
		}
		for name := range rec.Counters {
			counters[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// PC small has 4 training sizes × 2 tests.
	if lines != 8 {
		t.Errorf("got %d runlog lines, want 8", lines)
	}
	if len(counters) < 6 {
		t.Errorf("only %d distinct counters across records: %v", len(counters), counters)
	}
	for _, want := range []string{
		"core.bst.builds", "core.bst.cells", "core.bstce.evals",
		"core.classify.queries", "carminer.topk.nodes", "carminer.deadline.polls",
	} {
		if !counters[want] {
			t.Errorf("counter %q never appeared", want)
		}
	}

	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
}

// TestRunUninstrumented covers -obs=false: artifacts still render, records
// simply carry no counters.
func TestRunUninstrumented(t *testing.T) {
	runlog := filepath.Join(t.TempDir(), "runs.jsonl")
	err := run([]string{"-exp", "fig5", "-scale", "small", "-tests", "1", "-cutoff", "2s",
		"-quiet", "-obs=false", "-runlog", runlog})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(runlog)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var env struct {
			Run obs.RunRecord `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if len(env.Run.Counters) != 0 {
			t.Errorf("uninstrumented record carries counters: %v", env.Run.Counters)
		}
		if len(env.Run.PhasesMS) == 0 {
			t.Error("phases should be measured even without instrumentation")
		}
	}
}

func TestKnownExperiment(t *testing.T) {
	for _, e := range []string{"table2", "table7", "fig4", "tuning", "ablation"} {
		if !knownExperiment(e) {
			t.Errorf("%s should be known", e)
		}
	}
	if knownExperiment("fig9") || knownExperiment("all") {
		t.Error("fig9/all should not be known directly")
	}
}

// TestSummaryLinePhaseBusy pins the summary line format: counter
// highlights, then each study phase's busy seconds and share of the summed
// phase time, in pipeline order, skipping phases that did not run and
// histograms that are not study phases. Without instrumentation the delta
// is empty and the line is the wall time alone.
func TestSummaryLinePhaseBusy(t *testing.T) {
	ms := func(n int64) obs.HistSummary { return obs.HistSummary{Count: 1, Sum: n * int64(time.Millisecond)} }
	delta := obs.Snapshot{
		Counters: map[string]int64{
			"carminer.topk.nodes": 1200, "carminer.topk.pruned_support": 30,
			"carminer.topk.groups": 7, "carminer.lb.steps": 512, "carminer.lb.bounds": 4,
		},
		Hists: map[string]obs.HistSummary{
			"phase.discretize":    ms(100),
			"phase.bstc":          ms(150), // bstc/train + bstc/classify, not a study phase of its own
			"phase.bstc/train":    ms(50),
			"phase.bstc/classify": ms(100),
			"phase.rcbt/topk":     ms(1500),
			"phase.rcbt/build":    ms(250),
		},
	}
	var b bytes.Buffer
	summaryLine(&b, "OC study", 1234*time.Millisecond, delta)
	want := "[OC study] 1.234s topk-nodes=1200 pruned=30 groups=7 lb-steps=512 bounds=4" +
		" busy: discretize=0.100s(5.0%) bstc/train=0.050s(2.5%) bstc/classify=0.100s(5.0%)" +
		" rcbt/topk=1.500s(75.0%) rcbt/build=0.250s(12.5%)\n"
	if got := b.String(); got != want {
		t.Errorf("summary line\n got %q\nwant %q", got, want)
	}

	b.Reset()
	summaryLine(&b, "OC study", 1234*time.Millisecond, obs.Snapshot{})
	if got, want := b.String(), "[OC study] 1.234s\n"; got != want {
		t.Errorf("uninstrumented summary line %q, want %q", got, want)
	}
}
