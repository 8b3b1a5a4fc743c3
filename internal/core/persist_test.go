package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		d := randomBoolDataset(r, 12, 14, 2+trial%2)
		orig, err := Train(d, &EvalOptions{Arithmetization: ProductCombine, CullListsTo: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadClassifier(&buf)
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

func TestLoadClassifierErrors(t *testing.T) {
	if _, err := LoadClassifier(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should error")
	}
	if _, err := LoadClassifier(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage stream should error")
	}
}

func TestPaperExampleSurvivesPersistence(t *testing.T) {
	d := dataset.PaperTable1()
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4) // the §5.4 query
	vals := loaded.Values(q)
	if vals[0] != 0.75 || vals[1] != 0.375 {
		t.Errorf("worked example values after load = %v", vals)
	}
}

// TestLoadClassifierReadsStoredListStreams pins that model files written
// before tables derived their pair lists still load: a stream in that
// shape — pair lists, list polarities and black-dot flags included — must
// classify bit-identically to fresh training. The local DTO types carry
// the wire names and fields those releases encoded, so the stream is byte
// for byte what their Save wrote.
func TestLoadClassifierReadsStoredListStreams(t *testing.T) {
	type bstDTO struct {
		Class          int
		ClassSamples   []int
		OutsideSamples []int
		NumGenes       int
		ColGenes       []*bitset.Set
		Exclusive      []bool
		GeneOutside    []*bitset.Set
		PairGenes      []*bitset.Set
		PairNeg        []bool
	}
	type classifierDTO struct {
		Version    int
		ClassNames []string
		GeneNames  []string
		Opts       EvalOptions
		Tables     []bstDTO
	}
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 6; trial++ {
		d := randomBoolDataset(r, 14, 20, 2+trial%2)
		fresh, err := Train(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		old := classifierDTO{Version: 1, ClassNames: fresh.ClassNames, GeneNames: fresh.GeneNames, Opts: fresh.Opts}
		for _, tb := range fresh.Tables {
			b := bstDTO{
				Class:          tb.Class,
				ClassSamples:   tb.ClassSamples,
				OutsideSamples: tb.OutsideSamples,
				NumGenes:       tb.NumGenes(),
				ColGenes:       tb.colGenes,
				GeneOutside:    tb.geneOutside,
			}
			for g := 0; g < tb.NumGenes(); g++ {
				b.Exclusive = append(b.Exclusive, tb.exclusiveGenes.Contains(g))
			}
			for _, row := range pairListsReference(tb) {
				for _, cl := range row {
					b.PairGenes = append(b.PairGenes, cl.Genes)
					b.PairNeg = append(b.PairNeg, cl.Neg)
				}
			}
			old.Tables = append(old.Tables, b)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(old); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadClassifier(&buf)
		if err != nil {
			t.Fatalf("trial %d: stored-list stream no longer loads: %v", trial, err)
		}
		for qn := 0; qn < 10; qn++ {
			q := randomRow(r, d.NumGenes())
			want, got := fresh.Values(q), loaded.Values(q)
			for ci := range want {
				if math.Float64bits(want[ci]) != math.Float64bits(got[ci]) {
					t.Fatalf("trial %d class %d: loaded value %v, fresh training %v", trial, ci, got[ci], want[ci])
				}
			}
			wc, wconf := fresh.Decide(q)
			gc, gconf := loaded.Decide(q)
			if wc != gc || math.Float64bits(wconf) != math.Float64bits(gconf) {
				t.Fatalf("trial %d: loaded decides (%d, %v), fresh training (%d, %v)", trial, gc, gconf, wc, wconf)
			}
		}
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
