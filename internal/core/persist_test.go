package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
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
