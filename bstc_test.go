package bstc_test

import (
	"testing"

	"bstc"
)

// TestFacadeWorkedExample drives the public API through the paper's §5.4
// worked example end to end.
func TestFacadeWorkedExample(t *testing.T) {
	d := bstc.PaperTable1()
	cl, err := bstc.Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := bstc.GeneSetOf(d.NumGenes(), 0, 3, 4) // g1, g4, g5 expressed
	if got := cl.Classify(q); d.ClassNames[got] != "Cancer" {
		t.Errorf("classified %s, want Cancer", d.ClassNames[got])
	}
	vals := cl.Values(q)
	if vals[0] != 0.75 || vals[1] != 0.375 {
		t.Errorf("classification values %v, want [0.75 0.375]", vals)
	}
	exps := cl.Explain(q, 0, 0.5, 0)
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	if bstc.RenderRule(exps[0].Rule.Antecedent, d.GeneNames) == "" {
		t.Error("rule rendering empty")
	}
}

func TestFacadeDiscretizePipeline(t *testing.T) {
	profiles := bstc.PaperProfiles(bstc.ScaleSmall)
	if len(profiles) != 4 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	p := profiles[0] // ALL
	cont, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	model, err := bstc.Discretize(cont)
	if err != nil {
		t.Fatal(err)
	}
	boolData, err := model.Transform(cont)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := bstc.Train(boolData, &bstc.EvalOptions{Arithmetization: bstc.MinCombine})
	if err != nil {
		t.Fatal(err)
	}
	preds := cl.ClassifyBatchParallel(boolData, 1)
	correct := 0
	for i, pr := range preds {
		if pr == boolData.Classes[i] {
			correct++
		}
	}
	if correct < boolData.NumSamples()*8/10 {
		t.Errorf("training accuracy %d/%d too low", correct, boolData.NumSamples())
	}
}

func TestFacadeMining(t *testing.T) {
	d := bstc.PaperTable1()
	bst, err := bstc.NewBST(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	mined := bst.MineMCMCBAR(3, bstc.MineOptions{})
	if len(mined) != 3 {
		t.Fatalf("mined %d rules, want 3", len(mined))
	}
	groups, err := bstc.MineTopKRuleGroups(d, 0, bstc.TopKConfig{MinSupport: 0.5, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups.Groups) == 0 {
		t.Error("no rule groups mined")
	}
}

func TestFacadeContinuousBaselines(t *testing.T) {
	p := bstc.PaperProfiles(bstc.ScaleSmall)[0]
	cont, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	svmCl, err := bstc.TrainSVM(cont, bstc.SVMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := svmCl.PredictBatch(cont); len(got) != cont.NumSamples() {
		t.Error("SVM batch prediction length mismatch")
	}
	rfCl, err := bstc.TrainForest(cont, bstc.ForestConfig{NumTrees: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rfCl.PredictBatch(cont); len(got) != cont.NumSamples() {
		t.Error("forest batch prediction length mismatch")
	}
}

func TestFacadeMCBARClassifier(t *testing.T) {
	d := bstc.PaperTable1()
	cl, err := bstc.TrainMCBAR(d, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumRules() == 0 {
		t.Error("no rules mined")
	}
	preds := cl.ClassifyBatch(d)
	for i, p := range preds {
		if p != d.Classes[i] {
			t.Errorf("sample %d misclassified", i)
		}
	}
}

func TestFacadeJEP(t *testing.T) {
	d := bstc.PaperTable1()
	jeps, err := bstc.MineJEPs(d, 0, bstc.MiningBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jeps) != 3 { // {g1}, {g2,g4}, {g2,g6}
		t.Errorf("Cancer has %d minimal JEPs, want 3", len(jeps))
	}
	cl, err := bstc.TrainJEP(d, bstc.MiningBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumPatterns() != 6 {
		t.Errorf("NumPatterns = %d, want 6", cl.NumPatterns())
	}
	// g1 is a Cancer-only marker.
	q := bstc.GeneSetOf(d.NumGenes(), 0)
	if got := cl.Classify(q); d.ClassNames[got] != "Cancer" {
		t.Errorf("g1 query classified %s", d.ClassNames[got])
	}
}

func TestFacadeAdaptive(t *testing.T) {
	d := bstc.PaperTable1()
	a, err := bstc.TrainAdaptive(d)
	if err != nil {
		t.Fatal(err)
	}
	q := bstc.GeneSetOf(d.NumGenes(), 0, 3, 4)
	if got := a.Classify(q); d.ClassNames[got] != "Cancer" {
		t.Errorf("adaptive classified %s", d.ClassNames[got])
	}
}

func TestFacadeBaselines(t *testing.T) {
	d := bstc.PaperTable1()
	if _, err := bstc.TrainRCBT(d, bstc.RCBTConfig{MinSupport: 0.5, K: 2, NL: 3}); err != nil {
		t.Errorf("RCBT: %v", err)
	}
	if _, err := bstc.TrainCBA(d, bstc.CBAConfig{}); err != nil {
		t.Errorf("CBA: %v", err)
	}
	cfg := bstc.DefaultRCBTConfig()
	if cfg.MinSupport != 0.7 || cfg.K != 10 || cfg.NL != 20 {
		t.Errorf("DefaultRCBTConfig = %+v", cfg)
	}
}
