package core

import (
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/synth"
)

// FuzzBSTCE is a differential target for BSTCE: the fuzzer picks a small
// Boolean dataset and a query bit by bit (identical samples, empty rows and
// universes across a word boundary included), and Evaluate must agree with
// referenceEvaluate under both arithmetizations — bit for bit under the
// paper's MinCombine, which runs the column sweep. The same check runs on
// the tables rebuilt from Export, whose outside gene sets are transposed at
// load rather than aliased from the training rows.
func FuzzBSTCE(f *testing.F) {
	f.Add(uint8(6), uint8(5), uint8(0), []byte{0x5a, 0x3c, 0x99, 0x0f, 0xe1, 0x42})
	f.Add(uint8(70), uint8(9), uint8(1), []byte{0xff, 0x00, 0x81, 0x7e, 0x18, 0x24, 0xc3})
	f.Add(uint8(1), uint8(2), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, genes, samples, classes uint8, bits []byte) {
		d, q := fuzzDataset(int(genes)%80+1, int(samples)%14+2, int(classes)%2+2, bits)
		cl, err := Train(d, nil)
		if err != nil {
			t.Skip(err) // a class drew no samples
		}
		loaded, err := BuildClassifier(cl.Export())
		if err != nil {
			t.Fatal(err)
		}
		for ci := range cl.Tables {
			for _, arith := range []Arithmetization{MinCombine, ProductCombine} {
				if err := matchesReference(cl.Tables[ci], q, arith); err != nil {
					t.Fatalf("class %d: %v", ci, err)
				}
				if err := matchesReference(loaded.Tables[ci], q, arith); err != nil {
					t.Fatalf("loaded class %d: %v", ci, err)
				}
			}
		}
	})
}

// fuzzDataset reads a dataset and a query from bits, cycling through them
// (all zero when bits is empty): per sample a class-choice bit pair, then
// its genes; then the query's genes. The first samples take the
// classes in turn so every class usually has one.
func fuzzDataset(genes, samples, classes int, bits []byte) (*dataset.Bool, *bitset.Set) {
	pos := 0
	next := func() bool {
		if len(bits) == 0 {
			return false
		}
		b := bits[(pos/8)%len(bits)]>>(pos%8)&1 == 1
		pos++
		return b
	}
	d := &dataset.Bool{GeneNames: make([]string, genes), ClassNames: make([]string, classes)}
	for g := range d.GeneNames {
		d.GeneNames[g] = "g" + itoa(g+1)
	}
	for c := range d.ClassNames {
		d.ClassNames[c] = "C" + itoa(c+1)
	}
	row := func() *bitset.Set {
		s := bitset.New(genes)
		for g := 0; g < genes; g++ {
			if next() {
				s.Add(g)
			}
		}
		return s
	}
	for i := 0; i < samples; i++ {
		cl := i % classes
		if i >= classes {
			cl = 0
			for _, w := range []int{1, 2} {
				if next() {
					cl += w
				}
			}
			cl %= classes
		}
		d.Classes = append(d.Classes, cl)
		d.Rows = append(d.Rows, row())
	}
	return d, row()
}

// TestSweepBitIdenticalOnPaperProfiles trains on every other sample of each
// synth paper profile (small scale, discretized like a study) and checks
// the column sweep against the reference walk on held-out rows, bit for
// bit: the generator's block structure and bleed-through exercise ties,
// black dots and early exits that random datasets rarely hit.
func TestSweepBitIdenticalOnPaperProfiles(t *testing.T) {
	for _, p := range synth.PaperProfiles(synth.Small) {
		c, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var even, odd []int
		for i := range c.Values {
			if i%2 == 0 {
				even = append(even, i)
			} else {
				odd = append(odd, i)
			}
		}
		train, test := c.Subset(even), c.Subset(odd)
		m, err := discretize.Fit(train)
		if err != nil {
			t.Fatal(err)
		}
		trainB, err := m.Transform(train)
		if err != nil {
			t.Fatal(err)
		}
		testB, err := m.Transform(test)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Train(trainB, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, q := range testB.Rows {
			for ci, tb := range cl.Tables {
				if err := matchesReference(tb, q, MinCombine); err != nil {
					t.Fatalf("%s class %d held-out row %d: %v", p.Name, ci, k, err)
				}
			}
		}
	}
}

// TestDecisionEdgeCases pins decideValues' class and confidence rules,
// including the single-class case (confidence 1 whatever the value, as
// Classifier.Confidence always answered — unlike Adaptive's
// argmaxWithConfidence) and all-zero values (confidence 0).
func TestDecisionEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		vals  []float64
		class int
		conf  float64
	}{
		{"single class", []float64{0.4}, 0, 1},
		{"single class at zero", []float64{0}, 0, 1},
		{"all zero", []float64{0, 0, 0}, 0, 0},
		{"tie keeps smallest index", []float64{0.2, 0.5, 0.5}, 1, 0},
		{"normalized gap", []float64{0.25, 1, 0.5}, 1, 0.5},
		{"second below first", []float64{1, 0.25}, 0, 0.75},
	} {
		class, conf := decideValues(tc.vals)
		if class != tc.class || conf != tc.conf {
			t.Errorf("%s: decideValues(%v) = (%d, %v), want (%d, %v)",
				tc.name, tc.vals, class, conf, tc.class, tc.conf)
		}
	}
	// The same rules end to end, on a trained one-class classifier.
	d, q := fuzzDataset(10, 3, 1, []byte{0xa5, 0x3c})
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if class, conf := cl.Decide(q); class != 0 || conf != 1 || cl.Confidence(q) != 1 {
		t.Errorf("one-class Decide = (%d, %v), Confidence %v; want (0, 1) and 1", class, conf, cl.Confidence(q))
	}
}
