package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

func TestTrainMCBAROnTable1(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := TrainMCBAR(d, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.PerClass) != 2 {
		t.Fatalf("got %d classes", len(cl.PerClass))
	}
	if cl.NumRules() == 0 {
		t.Fatal("no rules mined")
	}
	// Training samples classify as their own class on the clean example.
	preds := cl.ClassifyBatch(d)
	for i, p := range preds {
		if p != d.Classes[i] {
			t.Errorf("training sample %s classified %s", d.SampleNames[i], d.ClassNames[p])
		}
	}
}

func TestMCBARClassifierWorkedExampleQuery(t *testing.T) {
	// The §5.4 query expresses g1 which only Cancer samples express; the
	// rule-explicit classifier should also pick Cancer.
	d := dataset.PaperTable1()
	cl, err := TrainMCBAR(d, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4)
	if got := cl.Classify(q); got != 0 {
		t.Errorf("classified %s, want Cancer", d.ClassNames[got])
	}
	// The coarse §4.2 heuristic can tie (both classes have a half-satisfied
	// rule here); Cancer must win the tie-break and never score lower.
	scores := cl.Scores(q)
	if scores[0] < scores[1] {
		t.Errorf("Cancer score %v should be at least Healthy's %v", scores[0], scores[1])
	}
}

func TestRuleSatisfactionBounds(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		d := randomBoolDataset(r, 8, 9, 2)
		cl, err := TrainMCBAR(d, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for qn := 0; qn < 4; qn++ {
			q := randomRow(r, d.NumGenes())
			for _, cr := range cl.PerClass {
				for _, m := range cr.Rules {
					for _, arith := range []Arithmetization{MinCombine, ProductCombine} {
						v := cr.Table.RuleSatisfaction(q, m, EvalOptions{Arithmetization: arith})
						if v < 0 || v > 1 {
							t.Fatalf("trial %d: rule satisfaction %v outside [0,1]", trial, v)
						}
					}
				}
			}
			for _, s := range cl.Scores(q) {
				if s < 0 || s > 1 {
					t.Fatalf("trial %d: score %v outside [0,1]", trial, s)
				}
			}
		}
	}
}

func TestRuleSatisfactionFullOnSupportingSample(t *testing.T) {
	// A rule's own supporting training samples satisfy it fully: value 1.
	r := rand.New(rand.NewSource(89))
	for trial := 0; trial < 20; trial++ {
		d := randomBoolDataset(r, 8, 9, 2)
		cl, err := TrainMCBAR(d, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range cl.PerClass {
			for _, m := range cr.Rules {
				for _, si := range m.SupportSamples {
					v := cr.Table.RuleSatisfaction(d.Rows[si], m, EvalOptions{})
					if v != 1 {
						t.Fatalf("trial %d: supporting sample %d satisfies rule at %v, want 1",
							trial, si, v)
					}
				}
			}
		}
	}
}

func TestMCBARClassifierEmptyQuery(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := TrainMCBAR(d, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All scores zero → smallest class index.
	if got := cl.Classify(bitset.New(6)); got != 0 {
		t.Errorf("empty query classified %d, want 0", got)
	}
}

func TestClassifyBatchParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	d := randomBoolDataset(r, 30, 15, 3)
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	test := randomBoolDataset(r, 40, 15, 3)
	serial := make([]int, len(test.Rows))
	confs := make([]float64, len(test.Rows))
	for i, row := range test.Rows {
		serial[i] = cl.Classify(row)
		confs[i] = cl.Confidence(row)
	}
	for _, workers := range []int{-1, 0, 1, 2, 7, 100} {
		got := cl.ClassifyBatchParallel(test, workers)
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: parallel results differ from serial", workers)
		}
	}
	// The single-pass Decide must give the same class and the same
	// confidence bits as the two-pass serial answers.
	for i, row := range test.Rows {
		class, conf := cl.Decide(row)
		if class != serial[i] || math.Float64bits(conf) != math.Float64bits(confs[i]) {
			t.Errorf("row %d: Decide (%d, %v), Classify/Confidence (%d, %v)", i, class, conf, serial[i], confs[i])
		}
	}
}
