package eval

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bstc/internal/cba"
	"bstc/internal/dataset"
	"bstc/internal/forest"
	"bstc/internal/obs"
	"bstc/internal/rcbt"
	"bstc/internal/svm"
	"bstc/internal/synth"
)

// toyData generates a small separable continuous dataset.
func toyData(t *testing.T, seed int64) *dataset.Continuous {
	t.Helper()
	p := synth.Profile{
		Name: "toy", NumGenes: 60,
		ClassNames: []string{"A", "B"}, ClassSizes: []int{20, 20},
		InformativeFrac: 0.25, Separation: 2.5, Dropout: 0.1, Seed: seed,
	}
	d, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func preparedToy(t *testing.T) *Prepared {
	t.Helper()
	d := toyData(t, 5)
	r := rand.New(rand.NewSource(1))
	sp, err := dataset.RandomFractionSplit(r, d.NumSamples(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PrepareWorkers(context.Background(), d, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestPrepareShapes(t *testing.T) {
	ps := preparedToy(t)
	if ps.TrainBool.NumSamples() != ps.TrainCont.NumSamples() {
		t.Error("train views disagree on sample count")
	}
	if ps.TestBool.NumSamples() != ps.TestCont.NumSamples() {
		t.Error("test views disagree on sample count")
	}
	if ps.GenesAfterDiscretization == 0 {
		t.Error("no genes selected")
	}
	if ps.TrainCont.NumGenes() != ps.GenesAfterDiscretization {
		t.Errorf("continuous view has %d genes, want %d selected",
			ps.TrainCont.NumGenes(), ps.GenesAfterDiscretization)
	}
	// Bool item vocabulary shared between train and test.
	if ps.TrainBool.NumGenes() != ps.TestBool.NumGenes() {
		t.Error("train/test item vocabularies differ")
	}
}

func TestPrepareRejectsEmptySides(t *testing.T) {
	d := toyData(t, 6)
	if _, err := PrepareWorkers(context.Background(), d, dataset.Split{Train: []int{0, 1}, Test: nil}, 1); err == nil {
		t.Error("empty test side should error")
	}
	if _, err := PrepareWorkers(context.Background(), d, dataset.Split{Train: nil, Test: []int{0}}, 1); err == nil {
		t.Error("empty train side should error")
	}
}

func TestRunBSTCAccuracy(t *testing.T) {
	ps := preparedToy(t)
	out, err := RunBSTCWorkers(context.Background(), ps, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accuracy < 0.75 {
		t.Errorf("BSTC accuracy %v too low on separable toy data", out.Accuracy)
	}
	if out.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
}

func TestRunRCBTFinishes(t *testing.T) {
	ps := preparedToy(t)
	out, err := RunRCBT(context.Background(), ps, rcbt.Config{MinSupport: 0.7, K: 3, NL: 5}, time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Finished() {
		t.Fatalf("RCBT did not finish on toy data: %+v", out)
	}
	if out.Accuracy < 0.6 {
		t.Errorf("RCBT accuracy %v too low", out.Accuracy)
	}
	if out.NLUsed != 5 || out.NLFallback {
		t.Errorf("unexpected nl state: %+v", out)
	}
}

func TestRunRCBTCutoffDNF(t *testing.T) {
	ps := preparedToy(t)
	out, err := RunRCBT(context.Background(), ps, rcbt.Config{MinSupport: 0.01, K: 10, NL: 20}, time.Nanosecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Finished() {
		t.Error("nanosecond cutoff should DNF")
	}
	if !out.TopkDNF && !out.RCBTDNF {
		t.Error("a phase should be marked DNF")
	}
}

func TestRunSVMAndForest(t *testing.T) {
	ps := preparedToy(t)
	accS, err := RunSVM(ps, svm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if accS < 0.7 {
		t.Errorf("SVM accuracy %v too low", accS)
	}
	accF, err := RunForest(ps, forest.Config{NumTrees: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if accF < 0.7 {
		t.Errorf("forest accuracy %v too low", accF)
	}
}

func TestRunCBAAndTreeAndMCBAR(t *testing.T) {
	ps := preparedToy(t)
	accC, err := RunCBA(ps, cba.Config{MinSupport: 0.1, MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if accC < 0.6 {
		t.Errorf("CBA accuracy %v too low", accC)
	}
	for _, mode := range []TreeMode{SingleTree, BaggedTrees, BoostedTrees} {
		acc, err := RunTree(ps, mode, 10, 1)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if acc < 0.6 {
			t.Errorf("tree mode %d accuracy %v too low", mode, acc)
		}
	}
	if _, err := RunTree(ps, TreeMode(99), 10, 1); err == nil {
		t.Error("unknown tree mode should error")
	}
	accM, err := RunMCBAR(ps, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accM < 0.6 {
		t.Errorf("MCBAR accuracy %v too low", accM)
	}
}

func TestPaperTrainSizes(t *testing.T) {
	sizes := PaperTrainSizes([2]int{52, 50})
	if len(sizes) != 4 {
		t.Fatalf("got %d sizes", len(sizes))
	}
	if sizes[0].Frac != 0.4 || sizes[1].Frac != 0.6 || sizes[2].Frac != 0.8 {
		t.Error("fraction sizes wrong")
	}
	if sizes[3].Label != "1-52/0-50" || sizes[3].Counts[0] != 52 || sizes[3].Counts[1] != 50 {
		t.Errorf("fixed-count size wrong: %+v", sizes[3])
	}
}

func TestRunCVEndToEnd(t *testing.T) {
	d := toyData(t, 7)
	results, err := RunCV(context.Background(), CVConfig{
		Data:       d,
		Sizes:      []TrainSize{{Label: "40%", Frac: 0.4}, {Label: "fixed", Counts: []int{8, 8}}},
		Tests:      3,
		Seed:       9,
		RunRCBT:    true,
		RCBT:       rcbt.Config{MinSupport: 0.7, K: 2, NL: 3},
		Cutoff:     30 * time.Second,
		NLFallback: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d size results", len(results))
	}
	for _, sr := range results {
		if len(sr.BSTC) != 3 || len(sr.RCBT) != 3 || len(sr.GenesAfter) != 3 {
			t.Fatalf("size %s: wrong test counts %d/%d/%d",
				sr.Size.Label, len(sr.BSTC), len(sr.RCBT), len(sr.GenesAfter))
		}
		if accs := sr.BSTCAccuracies(); len(accs) != 3 {
			t.Error("BSTCAccuracies wrong length")
		}
		if sr.MeanBSTCTime() <= 0 {
			t.Error("mean BSTC time not positive")
		}
		if _, _, lowered := sr.DNFCounts(); lowered {
			t.Error("unexpected nl fallback on toy data")
		}
	}
}

// TestRunCVWorkersDeterministic pins the parallel engine's core promise:
// the same seed yields identical results for any worker count, because
// splits are pre-drawn serially and every per-test stage is pure.
func TestRunCVWorkersDeterministic(t *testing.T) {
	d := toyData(t, 7)
	run := func(workers int) []SizeResult {
		t.Helper()
		results, err := RunCV(context.Background(), CVConfig{
			Data:       d,
			Sizes:      []TrainSize{{Label: "40%", Frac: 0.4}, {Label: "fixed", Counts: []int{8, 8}}},
			Tests:      4,
			Seed:       9,
			RunRCBT:    true,
			RCBT:       rcbt.Config{MinSupport: 0.7, K: 2, NL: 3},
			Cutoff:     time.Minute, // generous: DNF state must not depend on machine load
			NLFallback: 2,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 16} {
		par := run(workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d size results, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			s, p := serial[i], par[i]
			if !reflect.DeepEqual(p.BSTCAccuracies(), s.BSTCAccuracies()) {
				t.Errorf("workers=%d size %s: BSTC accuracies %v != %v",
					workers, s.Size.Label, p.BSTCAccuracies(), s.BSTCAccuracies())
			}
			if !reflect.DeepEqual(p.GenesAfter, s.GenesAfter) {
				t.Errorf("workers=%d size %s: genes after discretization %v != %v",
					workers, s.Size.Label, p.GenesAfter, s.GenesAfter)
			}
			for j := range s.RCBT {
				so, po := s.RCBT[j], p.RCBT[j]
				if po.Accuracy != so.Accuracy || po.TopkDNF != so.TopkDNF ||
					po.RCBTDNF != so.RCBTDNF || po.NLUsed != so.NLUsed {
					t.Errorf("workers=%d size %s test %d: RCBT outcome differs: %+v vs %+v",
						workers, s.Size.Label, j, po, so)
				}
			}
		}
	}
}

// TestRunCVMiningIndependentOfWorkers pins that Top-k mining inside a test
// does not depend on the fold pool size: node and group counts, node-budget
// DNFs and accuracies match the serial study exactly. One test per study
// keeps each record's counter window exact on the pool too.
func TestRunCVMiningIndependentOfWorkers(t *testing.T) {
	d := toyData(t, 12)
	exact := rcbt.Config{MinSupport: 0.5, K: 2, NL: 3}
	budget := exact
	budget.MaxNodes = 400 // below the serial miner's need on this split
	for _, tc := range []struct {
		name    string
		cfg     rcbt.Config
		wantDNF bool
	}{
		{"exact", exact, false},
		{"max-nodes", budget, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (obs.RunRecord, SizeResult) {
				t.Helper()
				SetMetrics(obs.NewRegistry())
				defer SetMetrics(nil)
				var buf bytes.Buffer
				results, err := RunCV(context.Background(), CVConfig{
					Data:       d,
					Sizes:      []TrainSize{{Label: "80%", Frac: 0.8}},
					Tests:      1,
					Seed:       3,
					RunRCBT:    true,
					RCBT:       tc.cfg,
					Cutoff:     time.Minute,
					NLFallback: 2,
					Workers:    workers,
					RunLog:     obs.NewRunLog(&buf),
				})
				if err != nil {
					t.Fatal(err)
				}
				recs := runlogLines(t, &buf)
				if len(recs) != 1 || len(results) != 1 {
					t.Fatalf("workers=%d: %d records, %d size results; want 1, 1", workers, len(recs), len(results))
				}
				return recs[0], results[0]
			}
			serial, serialRes := run(1)
			pool, poolRes := run(4)
			for _, c := range []string{"carminer.topk.nodes", "carminer.topk.groups"} {
				if serial.Counters[c] == 0 || pool.Counters[c] != serial.Counters[c] {
					t.Errorf("%s: workers=4 %d, workers=1 %d", c, pool.Counters[c], serial.Counters[c])
				}
			}
			if serial.TopkDNF != tc.wantDNF || pool.TopkDNF != serial.TopkDNF {
				t.Errorf("topk_dnf: workers=4 %v, workers=1 %v, want %v", pool.TopkDNF, serial.TopkDNF, tc.wantDNF)
			}
			s, p := serialRes.RCBT[0].Accuracy, poolRes.RCBT[0].Accuracy
			if p != s || poolRes.BSTC[0].Accuracy != serialRes.BSTC[0].Accuracy {
				t.Errorf("accuracies: workers=4 RCBT %v BSTC %v, workers=1 RCBT %v BSTC %v",
					p, poolRes.BSTC[0].Accuracy, s, serialRes.BSTC[0].Accuracy)
			}
		})
	}
}

// runlogLines parses the slog JSONL envelope a RunLog writes.
func runlogLines(t *testing.T, buf *bytes.Buffer) []obs.RunRecord {
	t.Helper()
	var recs []obs.RunRecord
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var env struct {
			Run obs.RunRecord `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad runlog line: %v\n%s", err, sc.Text())
		}
		recs = append(recs, env.Run)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRunCVFailureRecordCarriesTelemetry locks in the failure-telemetry
// fix: a test that fails mid-pipeline must still emit its counter deltas
// and phase spans — previously the record was emitted before either was
// populated, losing exactly the data that would explain the failure.
func TestRunCVFailureRecordCarriesTelemetry(t *testing.T) {
	SetMetrics(obs.NewRegistry())
	defer SetMetrics(nil)
	var buf bytes.Buffer
	// NL=0 passes mining but makes the RCBT build fail with a real
	// (non-budget) error — after BSTC and Top-k have done counted work.
	_, err := RunCV(context.Background(), CVConfig{
		Data:    toyData(t, 5),
		Sizes:   []TrainSize{{Label: "60%", Frac: 0.6}},
		Tests:   2,
		Seed:    3,
		RunRCBT: true,
		RCBT:    rcbt.Config{MinSupport: 0.7, K: 2, NL: 0},
		Cutoff:  time.Minute,
		Dataset: "toy",
		RunLog:  obs.NewRunLog(&buf),
	})
	if err == nil {
		t.Fatal("NL=0 should fail the RCBT build")
	}
	recs := runlogLines(t, &buf)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (the failing test aborts the study)", len(recs))
	}
	rec := recs[0]
	if rec.Error == "" {
		t.Fatal("failing record carries no error")
	}
	for _, counter := range []string{"core.bst.builds", "carminer.topk.nodes"} {
		if rec.Counters[counter] == 0 {
			t.Errorf("failing record lost counter %q: %v", counter, rec.Counters)
		}
	}
	for _, phase := range []string{"discretize", "bstc/train", "rcbt/topk"} {
		if _, ok := rec.PhasesMS[phase]; !ok {
			t.Errorf("failing record lost phase %q: %v", phase, rec.PhasesMS)
		}
	}
	if rec.BSTCAccuracy == nil {
		t.Error("failing record lost the BSTC accuracy measured before the failure")
	}
	if rec.Config["workers"] != 1 {
		t.Errorf("config worker count = %v, want 1", rec.Config["workers"])
	}
}

// TestRunCVWorkersRunlogOrderAndTags checks the pool's emission contract:
// records come out in task order regardless of completion order, tagged
// with the worker that ran them, and the config map carries the count.
func TestRunCVWorkersRunlogOrderAndTags(t *testing.T) {
	var buf bytes.Buffer
	_, err := RunCV(context.Background(), CVConfig{
		Data:    toyData(t, 5),
		Sizes:   []TrainSize{{Label: "40%", Frac: 0.4}, {Label: "60%", Frac: 0.6}},
		Tests:   3,
		Seed:    4,
		Workers: 4,
		Dataset: "toy",
		RunLog:  obs.NewRunLog(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := runlogLines(t, &buf)
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	for i, rec := range recs {
		wantSize := "40%"
		if i >= 3 {
			wantSize = "60%"
		}
		if rec.Size != wantSize || rec.Test != i%3 {
			t.Errorf("record %d out of order: size %q test %d", i, rec.Size, rec.Test)
		}
		if rec.Worker < 1 || rec.Worker > 4 {
			t.Errorf("record %d: worker tag %d outside pool [1,4]", i, rec.Worker)
		}
		if rec.Config["workers"] != 4 {
			t.Errorf("record %d: config worker count = %v, want 4", i, rec.Config["workers"])
		}
	}
}

func TestRunCVValidation(t *testing.T) {
	d := toyData(t, 8)
	if _, err := RunCV(context.Background(), CVConfig{Data: d, Sizes: []TrainSize{{Frac: 0.4}}, Tests: 0}); err == nil {
		t.Error("Tests=0 should error")
	}
	if _, err := RunCV(context.Background(), CVConfig{Data: d, Tests: 1}); err == nil {
		t.Error("no sizes should error")
	}
}

func TestMediumScalePipelineSanity(t *testing.T) {
	// The medium-scale OC profile (1515 genes, 253 samples) must flow
	// through discretization and BSTC without pathology; only BSTC runs
	// (the miners' medium-scale behaviour is the benchmark harness's job).
	if testing.Short() {
		t.Skip("medium-scale pipeline")
	}
	p, err := synth.ProfileByName("OC", synth.Medium)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	sp, err := dataset.RandomFractionSplit(r, d.NumSamples(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PrepareWorkers(context.Background(), d, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps.GenesAfterDiscretization < 10 {
		t.Fatalf("medium OC selected only %d genes", ps.GenesAfterDiscretization)
	}
	out, err := RunBSTCWorkers(context.Background(), ps, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accuracy < 0.8 {
		t.Errorf("medium OC BSTC accuracy %v too low", out.Accuracy)
	}
	if out.Elapsed > 30*time.Second {
		t.Errorf("medium OC BSTC took %v — polynomial promise broken?", out.Elapsed)
	}
}

func TestSizeResultAggregatesWithDNF(t *testing.T) {
	sr := SizeResult{
		BSTC: []BSTCOutcome{{Accuracy: 0.9, Elapsed: time.Second}, {Accuracy: 0.8, Elapsed: time.Second}},
		RCBT: []RCBTOutcome{
			{TopkTime: time.Second, RCBTTime: 2 * time.Second, Accuracy: 0.85},
			{TopkTime: 3 * time.Second, TopkDNF: true},
		},
	}
	if got := sr.RCBTFinishedAccuracies(); len(got) != 1 || got[0] != 0.85 {
		t.Errorf("finished accuracies = %v", got)
	}
	if got := sr.BSTCAccuraciesWhereRCBTFinished(); len(got) != 1 || got[0] != 0.9 {
		t.Errorf("paired BSTC accuracies = %v", got)
	}
	mean, trunc := sr.MeanTopkTime()
	if mean != 2*time.Second || !trunc {
		t.Errorf("MeanTopkTime = %v, %v", mean, trunc)
	}
	mean, trunc = sr.MeanRCBTTime()
	if mean != 2*time.Second || trunc {
		t.Errorf("MeanRCBTTime = %v, %v", mean, trunc)
	}
	dnf, fin, _ := sr.DNFCounts()
	if dnf != 0 || fin != 1 {
		t.Errorf("DNFCounts = %d/%d", dnf, fin)
	}
}

func TestSizeResultAllDNFFallsBackToAllBSTC(t *testing.T) {
	sr := SizeResult{
		BSTC: []BSTCOutcome{{Accuracy: 0.9}, {Accuracy: 0.7}},
		RCBT: []RCBTOutcome{{TopkDNF: true}, {RCBTDNF: true}},
	}
	if got := sr.BSTCAccuraciesWhereRCBTFinished(); len(got) != 2 {
		t.Errorf("expected fallback to all BSTC accuracies, got %v", got)
	}
	if got := sr.RCBTFinishedAccuracies(); len(got) != 0 {
		t.Errorf("expected no finished RCBT tests, got %v", got)
	}
}
