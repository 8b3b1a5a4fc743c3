package rules

import (
	"math/rand"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// randBool generates a random labeled boolean dataset.
func randBool(r *rand.Rand, numGenes, numSamples, numClasses int) *dataset.Bool {
	d := &dataset.Bool{
		GeneNames:  make([]string, numGenes),
		ClassNames: make([]string, numClasses),
		Classes:    make([]int, numSamples),
		Rows:       make([]*bitset.Set, numSamples),
	}
	for i := range d.GeneNames {
		d.GeneNames[i] = "g" + string(rune('a'+i))
	}
	for i := range d.ClassNames {
		d.ClassNames[i] = "C" + string(rune('0'+i))
	}
	for i := range d.Rows {
		d.Classes[i] = r.Intn(numClasses)
		row := bitset.New(numGenes)
		for g := 0; g < numGenes; g++ {
			if r.Intn(2) == 0 {
				row.Add(g)
			}
		}
		d.Rows[i] = row
	}
	return d
}

// TestCARToBARRoundTrip checks the §2/Theorem 2 measure-preservation: viewing
// a CAR as a BAR (via Expr) preserves its support and confidence, and
// recovering the CAR from the BAR antecedent's genes is lossless.
func TestCARToBARRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		numGenes := 3 + r.Intn(6)
		d := randBool(r, numGenes, 4+r.Intn(24), 2+r.Intn(2))
		genes := bitset.New(numGenes)
		for n := 1 + r.Intn(3); n > 0; n-- {
			genes.Add(r.Intn(numGenes))
		}
		car := CAR{Genes: genes, Class: r.Intn(2)}
		bar := BAR{Antecedent: car.Expr(), Class: car.Class}

		wantSupp, wantConf := CARSupportConfidence(d, car)
		if got := bar.Support(d).Count(); got != wantSupp {
			t.Fatalf("iteration %d: BAR support %d, CAR support %d (%s)", i, got, wantSupp, car)
		}
		if got := bar.Confidence(d); got != wantConf {
			t.Fatalf("iteration %d: BAR confidence %v, CAR confidence %v (%s)", i, got, wantConf, car)
		}

		back := CAR{Genes: bitset.FromIndices(numGenes, GenesOf(bar.Antecedent)...), Class: bar.Class}
		if !back.Genes.Equal(car.Genes) {
			t.Fatalf("iteration %d: CAR→BAR→CAR changed the gene set: %v vs %v",
				i, back.Genes.Indices(), car.Genes.Indices())
		}
		backSupp, backConf := CARSupportConfidence(d, back)
		if backSupp != wantSupp || backConf != wantConf {
			t.Fatalf("iteration %d: round-tripped CAR measures (%d, %v), want (%d, %v)",
				i, backSupp, backConf, wantSupp, wantConf)
		}
	}
}
