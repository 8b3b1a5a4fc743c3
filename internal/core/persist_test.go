package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

// A trained classifier is fully determined by its training set and its
// options, so that pair is what a model file persists (internal/eval's
// artifact) and Train is what rebuilds it.

// TestSaveLoadRoundTrip: a classifier rebuilt from its training set and
// options keeps its metadata, values, classes and explanations.
func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		d := randomBoolDataset(r, 12, 14, 2+trial%2)
		orig, err := Train(d, &EvalOptions{Arithmetization: ProductCombine, CullListsTo: 3})
		if err != nil {
			t.Fatal(err)
		}
		if orig.TrainingSet() != d {
			t.Fatal("TrainingSet is not the dataset the classifier was trained on")
		}
		loaded, err := Train(orig.TrainingSet(), &orig.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded.ClassNames, orig.ClassNames) ||
			!reflect.DeepEqual(loaded.GeneNames, orig.GeneNames) ||
			loaded.Opts != orig.Opts {
			t.Fatal("metadata lost in round trip")
		}
		// Behavioural equivalence: identical values and classifications for
		// random queries.
		for qn := 0; qn < 10; qn++ {
			q := randomRow(r, d.NumGenes())
			if !reflect.DeepEqual(orig.Values(q), loaded.Values(q)) {
				t.Fatalf("trial %d: values differ after round trip", trial)
			}
			if orig.Classify(q) != loaded.Classify(q) {
				t.Fatalf("trial %d: classification differs after round trip", trial)
			}
		}
		// Explanations survive too (cell derivation relies on every field).
		q := randomRow(r, d.NumGenes())
		for ci := range orig.Tables {
			if err := sameExplanations(orig.Explain(q, ci, 0), loaded.Explain(q, ci, 0), d.GeneNames); err != nil {
				t.Fatalf("trial %d class %d: %v", trial, ci, err)
			}
		}
	}
}

// sameExplanations reports the first field in which two explanation lists
// differ: gene, supporting sample, satisfaction bits or rendered rule.
func sameExplanations(want, got []Explanation, genes []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d explanations, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		switch {
		case g.Gene != w.Gene || g.SampleIndex != w.SampleIndex:
			return fmt.Errorf("explanation %d is cell (%d, sample %d), want (%d, sample %d)",
				i, g.Gene, g.SampleIndex, w.Gene, w.SampleIndex)
		case math.Float64bits(g.Satisfaction) != math.Float64bits(w.Satisfaction):
			return fmt.Errorf("explanation %d satisfaction %v, want %v", i, g.Satisfaction, w.Satisfaction)
		case g.Rule.Class != w.Rule.Class ||
			rules.Render(g.Rule.Antecedent, genes) != rules.Render(w.Rule.Antecedent, genes):
			return fmt.Errorf("explanation %d rule differs", i)
		}
	}
	return nil
}

// TestPaperExampleSurvivesPersistence: the §5.4 worked example's values
// survive a rebuild from the training set.
func TestPaperExampleSurvivesPersistence(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Train(cl.TrainingSet(), &cl.Opts)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4) // the §5.4 query
	vals := loaded.Values(q)
	if vals[0] != 0.75 || vals[1] != 0.375 {
		t.Errorf("worked example values after load = %v", vals)
	}
}
