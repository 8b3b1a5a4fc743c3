package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// TestSaveLoadRoundTrip: a classifier rebuilt from its export, the data the
// artifact persists, keeps its metadata, values, classes and explanations.
func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		d := randomBoolDataset(r, 12, 14, 2+trial%2)
		orig, err := Train(d, &EvalOptions{Arithmetization: ProductCombine, CullListsTo: 3})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := BuildClassifier(orig.Export())
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
		eo := orig.Explain(q, 0, 0)
		el := loaded.Explain(q, 0, 0)
		if len(eo) != len(el) {
			t.Fatalf("trial %d: explanation counts differ: %d vs %d", trial, len(eo), len(el))
		}
	}
}

// TestPaperExampleSurvivesPersistence: the §5.4 worked example's values
// survive the export and rebuild.
func TestPaperExampleSurvivesPersistence(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := BuildClassifier(cl.Export())
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4) // the §5.4 query
	vals := loaded.Values(q)
	if vals[0] != 0.75 || vals[1] != 0.375 {
		t.Errorf("worked example values after load = %v", vals)
	}
}

// TestBuildClassifierRejectsDisagreeingTables pins the load-time check the
// shared pair counts rest on: every table must hold the same row for a
// sample, and the tables must partition the samples. Train's tables pass;
// an export edited to break either is refused, whatever the edit touches.
func TestBuildClassifierRejectsDisagreeingTables(t *testing.T) {
	d := randomBoolDataset(rand.New(rand.NewSource(107)), 12, 20, 3)
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildClassifier(cl.Export()); err != nil {
		t.Fatalf("trained model refused: %v", err)
	}
	// edited returns a copy of the export that edit may change freely: the
	// export shares its slices and sets with the live classifier.
	edited := func(edit func(cd *ClassifierData)) ClassifierData {
		cd := cl.Export()
		cd.Tables = append([]TableData(nil), cd.Tables...)
		for i := range cd.Tables {
			tb := &cd.Tables[i]
			tb.ClassSamples = append([]int(nil), tb.ClassSamples...)
			tb.OutsideSamples = append([]int(nil), tb.OutsideSamples...)
			tb.ColGenes = cloneSets(tb.ColGenes)
			tb.GeneOutside = cloneSets(tb.GeneOutside)
		}
		edit(&cd)
		return cd
	}
	for _, tc := range []struct {
		name, want string
		edit       func(cd *ClassifierData)
	}{
		{"flipped bit in one table's copy of a shared row", "different rows", func(cd *ClassifierData) {
			// Gene 3 of table 0's outside sample 0: the sample's own
			// table keeps the trained row.
			if s := cd.Tables[0].GeneOutside[3]; s.Contains(0) {
				s.Remove(0)
			} else {
				s.Add(0)
			}
		}},
		{"sample listed under two classes", "is a column of table 0 and of table 1", func(cd *ClassifierData) {
			t0, t1 := &cd.Tables[0], &cd.Tables[1]
			t0.ClassSamples = append(t0.ClassSamples, t1.ClassSamples[0])
			t0.ColGenes = append(t0.ColGenes, t1.ColGenes[0])
		}},
		{"own column listed outside", "not a column of another table", func(cd *ClassifierData) {
			tb := &cd.Tables[2]
			tb.OutsideSamples[0] = tb.ClassSamples[0]
		}},
		{"outside sample listed twice", "twice", func(cd *ClassifierData) {
			tb := &cd.Tables[1]
			tb.OutsideSamples[1] = tb.OutsideSamples[0]
		}},
	} {
		_, err := BuildClassifier(edited(tc.edit))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: BuildClassifier error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := BuildClassifier(cl.Export()); err != nil {
		t.Fatalf("the edits reached the trained model: %v", err)
	}
}

func cloneSets(sets []*bitset.Set) []*bitset.Set {
	out := make([]*bitset.Set, len(sets))
	for i, s := range sets {
		out[i] = s.Clone()
	}
	return out
}
