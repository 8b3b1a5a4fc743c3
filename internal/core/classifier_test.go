package core

import (
	"math"
	"math/rand"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

func TestTrainValidates(t *testing.T) {
	d := dataset.PaperTable1()
	d.Classes[0] = 99 // corrupt
	if _, err := Train(d, nil); err == nil {
		t.Error("Train should reject invalid dataset")
	}
}

func TestTrainEmptyClass(t *testing.T) {
	d := dataset.PaperTable1()
	d.ClassNames = append(d.ClassNames, "Ghost")
	if _, err := Train(d, nil); err == nil {
		t.Error("Train should reject a class with no samples")
	}
}

func TestClassifyTieBreaksToSmallestIndex(t *testing.T) {
	// Two mirror-image classes and a query expressing nothing: both values
	// are 0 and Algorithm 6 picks the smallest index.
	d, err := dataset.FromItems(
		map[string][]string{"a": {"g1"}, "b": {"g2"}},
		map[string]string{"a": "A", "b": "B"},
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.New(d.NumGenes())
	if got := cl.Classify(q); got != 0 {
		t.Errorf("tie should break to class 0, got %d", got)
	}
}

func TestClassifyBatch(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Training samples should mostly classify as their own class: every
	// sample satisfies its own cells fully (value 1 for its own table).
	got := cl.ClassifyBatchParallel(d, 1)
	for i, pred := range got {
		if pred != d.Classes[i] {
			t.Errorf("training sample %s classified %s, want %s",
				d.SampleNames[i], d.ClassNames[pred], d.ClassNames[d.Classes[i]])
		}
	}
}

func TestTrainingSamplesSelfEvaluateToOne(t *testing.T) {
	// A training sample fully satisfies every cell rule in its own column:
	// its column value is 1.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		d := randomBoolDataset(r, 8, 9, 2)
		for ci := 0; ci < 2; ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for c, si := range bst.ClassSamples {
				if d.Rows[si].IsEmpty() {
					continue
				}
				ev := bst.Evaluate(d.Rows[si], EvalOptions{})
				if got := ev.ColumnValues[c]; got != 1 {
					t.Fatalf("trial %d: sample %d column value %v, want 1", trial, si, got)
				}
			}
		}
	}
}

func TestMulticlassClassification(t *testing.T) {
	// §5.3: N need not be 2. Three classes with disjoint marker genes plus
	// shared noise genes; queries expressing a marker go to its class.
	samples := map[string][]string{
		"a1": {"m1", "x", "y"}, "a2": {"m1", "y"},
		"b1": {"m2", "x"}, "b2": {"m2", "x", "y"},
		"c1": {"m3", "y"}, "c2": {"m3", "x"},
	}
	classes := map[string]string{
		"a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C", "c2": "C",
	}
	d, err := dataset.FromItems(samples, classes)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Tables) != 3 {
		t.Fatalf("trained %d tables, want 3", len(cl.Tables))
	}
	geneIdx := map[string]int{}
	for j, g := range d.GeneNames {
		geneIdx[g] = j
	}
	classIdx := map[string]int{}
	for j, c := range d.ClassNames {
		classIdx[c] = j
	}
	for marker, class := range map[string]string{"m1": "A", "m2": "B", "m3": "C"} {
		q := bitset.New(d.NumGenes())
		q.Add(geneIdx[marker])
		q.Add(geneIdx["x"])
		if got := cl.Classify(q); got != classIdx[class] {
			t.Errorf("query with %s classified %s, want %s", marker, d.ClassNames[got], class)
		}
	}
}

func TestExplain(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4) // the §5.4 query

	// All Cancer cell rules with satisfaction ≥ 0.5: from Figure 3 the
	// considered cells are (g1,s1)=1, (g5,s1)=0.5, (g1,s2)=1, (g4,s3)=0.5.
	exps := cl.Explain(q, 0, 0.5)
	if len(exps) != 4 {
		t.Fatalf("got %d explanations, want 4: %+v", len(exps), exps)
	}
	// Sorted strongest first.
	for i := 1; i < len(exps); i++ {
		if exps[i].Satisfaction > exps[i-1].Satisfaction {
			t.Error("explanations not sorted by satisfaction")
		}
	}
	if exps[0].Satisfaction != 1 || exps[0].Gene != 0 {
		t.Errorf("strongest explanation = %+v, want g1 dot cell", exps[0])
	}
	// Raising the threshold to 1 keeps only the two black-dot cells.
	if got := cl.Explain(q, 0, 1); len(got) != 2 {
		t.Errorf("threshold 1: got %d explanations, want 2", len(got))
	}
	// Threshold 0 reports every considered non-blank cell (5 total:
	// Figure 3 shows g1/g5 under s1, g1 under s2, g4 under s3 — plus none
	// others since Q only expresses g1, g4, g5).
	if got := cl.Explain(q, 0, 0); len(got) != 4 {
		t.Errorf("threshold 0: got %d explanations, want 4", len(got))
	}
}

func TestConfidenceHeuristic(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4)
	// Values are 0.75 vs 0.375 → confidence (0.75-0.375)/0.75 = 0.5.
	if got := cl.Confidence(q); got != 0.5 {
		t.Errorf("Confidence = %v, want 0.5", got)
	}
	// A query expressing nothing has value 0 everywhere → confidence 0.
	if got := cl.Confidence(bitset.New(6)); got != 0 {
		t.Errorf("Confidence(empty) = %v, want 0", got)
	}
}

func TestEvalOptionsPlumbing(t *testing.T) {
	d := dataset.PaperTable1()
	clMin, err := Train(d, &EvalOptions{Arithmetization: MinCombine})
	if err != nil {
		t.Fatal(err)
	}
	clProd, err := Train(d, &EvalOptions{Arithmetization: ProductCombine})
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4)
	vMin := clMin.Values(q)
	vProd := clProd.Values(q)
	// For this query each considered cell has at most one list with
	// fraction < 1, so min == product here; both must classify Cancer.
	if clMin.Classify(q) != 0 || clProd.Classify(q) != 0 {
		t.Error("both arithmetizations should classify the worked example as Cancer")
	}
	for i := range vMin {
		if vProd[i] > vMin[i]+1e-12 {
			t.Errorf("class %d: product value %v exceeds min value %v", i, vProd[i], vMin[i])
		}
	}
}

func TestArithmetizationString(t *testing.T) {
	if MinCombine.String() != "min" || ProductCombine.String() != "product" {
		t.Error("Arithmetization String broken")
	}
	if Arithmetization(99).String() != "unknown" {
		t.Error("unknown arithmetization should render as unknown")
	}
}

// TestDecideBatchParallelMatchesSerial runs DecideBatchParallel with four
// workers on a three-class classifier, whose queries share pair counts
// across tables out of pooled scratch, and requires serial Decide's
// answers bit for bit; make race runs it under the race detector.
func TestDecideBatchParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	d := randomBoolDataset(r, 30, 90, 3)
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]*bitset.Set, 200)
	for i := range rows {
		rows[i] = randomRow(r, d.NumGenes())
	}
	for round := 0; round < 3; round++ {
		classes, confs := cl.DecideBatchParallel(rows, 4)
		for i, q := range rows {
			wc, wconf := cl.Decide(q)
			if classes[i] != wc || math.Float64bits(confs[i]) != math.Float64bits(wconf) {
				t.Fatalf("round %d row %d: parallel (%d, %v), serial (%d, %v)", round, i, classes[i], confs[i], wc, wconf)
			}
		}
	}
}
