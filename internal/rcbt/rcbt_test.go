package rcbt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"bstc/internal/bitset"
	"bstc/internal/carminer"
	"bstc/internal/dataset"
)

// markerData builds a cleanly separable two-class dataset: class A samples
// express marker genes a1,a2 plus noise; class B samples express b1,b2.
func markerData(t *testing.T) *dataset.Bool {
	t.Helper()
	d, err := dataset.FromItems(
		map[string][]string{
			"s1": {"a1", "a2", "n1"},
			"s2": {"a1", "a2", "n2"},
			"s3": {"a1", "a2", "n1", "n2"},
			"s4": {"b1", "b2", "n1"},
			"s5": {"b1", "b2", "n2"},
			"s6": {"b1", "b2", "n1", "n2"},
		},
		map[string]string{"s1": "A", "s2": "A", "s3": "A", "s4": "B", "s5": "B", "s6": "B"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func geneIdx(d *dataset.Bool) map[string]int {
	gi := map[string]int{}
	for j, g := range d.GeneNames {
		gi[g] = j
	}
	return gi
}

func classIdx(d *dataset.Bool) map[string]int {
	ci := map[string]int{}
	for j, c := range d.ClassNames {
		ci[c] = j
	}
	return ci
}

func TestTrainAndClassifySeparable(t *testing.T) {
	d := markerData(t)
	cl, err := Train(context.Background(), d, Config{MinSupport: 0.7, K: 3, NL: 5})
	if err != nil {
		t.Fatal(err)
	}
	gi, ci := geneIdx(d), classIdx(d)

	qa := bitset.New(d.NumGenes())
	qa.Add(gi["a1"])
	qa.Add(gi["a2"])
	if got := cl.Classify(qa); got != ci["A"] {
		t.Errorf("marker-A query classified %s", d.ClassNames[got])
	}
	qb := bitset.New(d.NumGenes())
	qb.Add(gi["b1"])
	qb.Add(gi["b2"])
	qb.Add(gi["n1"])
	if got := cl.Classify(qb); got != ci["B"] {
		t.Errorf("marker-B query classified %s", d.ClassNames[got])
	}
}

func TestTrainingAccuracyOnSeparableData(t *testing.T) {
	d := markerData(t)
	cl, err := Train(context.Background(), d, Config{MinSupport: 0.7, K: 3, NL: 5})
	if err != nil {
		t.Fatal(err)
	}
	preds := cl.ClassifyBatch(d)
	for i, p := range preds {
		if p != d.Classes[i] {
			t.Errorf("training sample %d misclassified as %s", i, d.ClassNames[p])
		}
	}
}

func TestDefaultClassFallback(t *testing.T) {
	d := markerData(t)
	cl, err := Train(context.Background(), d, Config{MinSupport: 0.7, K: 2, NL: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A query expressing nothing matches no rule: majority default.
	q := bitset.New(d.NumGenes())
	if got := cl.Classify(q); got != cl.DefaultClass {
		t.Errorf("unmatched query classified %d, want default %d", got, cl.DefaultClass)
	}
	if _, _, ok := cl.Scores(q); ok {
		t.Error("Scores should report no match for an empty query")
	}
}

func TestScoresNormalized(t *testing.T) {
	d := markerData(t)
	cl, err := Train(context.Background(), d, Config{MinSupport: 0.7, K: 2, NL: 3})
	if err != nil {
		t.Fatal(err)
	}
	gi := geneIdx(d)
	q := bitset.New(d.NumGenes())
	q.Add(gi["a1"])
	q.Add(gi["a2"])
	scores, sub, ok := cl.Scores(q)
	if !ok {
		t.Fatal("expected a match")
	}
	if sub != 0 {
		t.Errorf("match should come from the main classifier, got sub %d", sub)
	}
	for c, s := range scores {
		if s < 0 || s > 1+1e-12 {
			t.Errorf("score[%d] = %v outside [0,1]", c, s)
		}
	}
}

func TestMajorityDefault(t *testing.T) {
	d, err := dataset.FromItems(
		map[string][]string{
			"s1": {"a"}, "s2": {"a", "b"}, "s3": {"b"},
			"s4": {"c"}, "s5": {"c", "a"},
		},
		map[string]string{"s1": "X", "s2": "X", "s3": "X", "s4": "Y", "s5": "Y"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := majorityClass(d); d.ClassNames[got] != "X" {
		t.Errorf("majority class = %s, want X", d.ClassNames[got])
	}
}

func TestBuildValidation(t *testing.T) {
	d := markerData(t)
	mined, err := Mine(context.Background(), d, Config{MinSupport: 0.7, K: 2, NL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), d, mined[:1], Config{MinSupport: 0.7, K: 2, NL: 2}); err == nil {
		t.Error("Build should reject wrong class count")
	}
	if _, err := Build(context.Background(), d, mined, Config{MinSupport: 0.7, K: 0, NL: 2}); err == nil {
		t.Error("Build should reject K=0")
	}
	if _, err := Build(context.Background(), d, mined, Config{MinSupport: 0.7, K: 2, NL: 0}); err == nil {
		t.Error("Build should reject NL=0")
	}
	if _, err := Build(context.Background(), d, []*carminer.TopKResult{nil, nil}, Config{MinSupport: 0.7, K: 2, NL: 2}); err == nil {
		t.Error("Build should reject nil mining results")
	}
}

func TestTrainBudgetDNF(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	d := &dataset.Bool{
		GeneNames:  make([]string, 50),
		ClassNames: []string{"A", "B"},
	}
	for g := range d.GeneNames {
		d.GeneNames[g] = "g"
	}
	for i := 0; i < 40; i++ {
		row := bitset.New(50)
		for g := 0; g < 50; g++ {
			if r.Intn(2) == 0 {
				row.Add(g)
			}
		}
		d.Rows = append(d.Rows, row)
		d.Classes = append(d.Classes, i%2)
	}
	_, err := Train(context.Background(), d, Config{
		MinSupport: 0.01, K: 10, NL: 20,
		Budget: carminer.Budget{Deadline: time.Now().Add(-time.Second)},
	})
	if !errors.Is(err, carminer.ErrBudgetExceeded) {
		t.Errorf("expected DNF, got %v", err)
	}
}

func TestNumRulesAndSubStructure(t *testing.T) {
	d := markerData(t)
	cfg := Config{MinSupport: 0.7, K: 3, NL: 5}
	cl, err := Train(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Sub) != cfg.K {
		t.Errorf("got %d sub-classifiers, want %d", len(cl.Sub), cfg.K)
	}
	if cl.NumRules() == 0 {
		t.Error("trained classifier has no rules")
	}
	if len(cl.Sub[0]) == 0 {
		t.Error("main classifier has no rules")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MinSupport != 0.7 || cfg.K != 10 || cfg.NL != 20 {
		t.Errorf("DefaultConfig = %+v, want paper's support=0.7 k=10 nl=20", cfg)
	}
}

func TestRCBTAgreesWithLabelsOnNoisySeparableData(t *testing.T) {
	// Random datasets with planted markers: RCBT should beat coin flipping
	// comfortably on held-out queries that carry the marker.
	r := rand.New(rand.NewSource(67))
	d, err := dataset.FromItems(
		map[string][]string{
			"t1": {"m0", "x1"}, "t2": {"m0", "x2"}, "t3": {"m0", "x1", "x2"},
			"u1": {"m1", "x1"}, "u2": {"m1", "x2"}, "u3": {"m1", "x1", "x2"},
		},
		map[string]string{"t1": "T", "t2": "T", "t3": "T", "u1": "U", "u2": "U", "u3": "U"},
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Train(context.Background(), d, Config{MinSupport: 0.6, K: 2, NL: 4})
	if err != nil {
		t.Fatal(err)
	}
	gi, ci := geneIdx(d), classIdx(d)
	correct := 0
	for i := 0; i < 20; i++ {
		q := bitset.New(d.NumGenes())
		want := ci["T"]
		if r.Intn(2) == 0 {
			q.Add(gi["m0"])
		} else {
			q.Add(gi["m1"])
			want = ci["U"]
		}
		if r.Intn(2) == 0 {
			q.Add(gi["x1"])
		}
		if cl.Classify(q) == want {
			correct++
		}
	}
	if correct < 18 {
		t.Errorf("only %d/20 marker queries classified correctly", correct)
	}
}
