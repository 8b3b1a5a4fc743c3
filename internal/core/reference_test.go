package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bstc/internal/bitset"
)

// referenceEvaluate is a naive, cell-by-cell transliteration of Algorithm 5
// built on the public Cell accessor: it materializes every cell, computes
// each exclusion list's satisfaction fraction independently, combines with
// min (or product), averages down columns and across non-blank columns.
// The optimized Evaluate (shared pair values, lazy computation, culling
// fast paths) must agree with it exactly.
func referenceEvaluate(t *BST, q *bitset.Set, arith Arithmetization) Evaluation {
	colVals := make([]float64, t.NumColumns())
	for c := range colVals {
		colVals[c] = math.NaN()
	}
	var colSum float64
	nonBlank := 0
	for c := 0; c < t.NumColumns(); c++ {
		var sum float64
		n := 0
		for g := 0; g < t.NumGenes(); g++ {
			if !q.Contains(g) {
				continue
			}
			kind, cls := t.Cell(g, c)
			switch kind {
			case CellBlank:
				continue
			case CellDot:
				sum++
			case CellLists:
				v := 1.0
				for _, cc := range cls {
					f := cc.Clause.SatisfactionFraction(q)
					if arith == ProductCombine {
						v *= f
					} else if f < v {
						v = f
					}
				}
				sum += v
			}
			n++
		}
		if n == 0 {
			continue
		}
		colVals[c] = sum / float64(n)
		colSum += colVals[c]
		nonBlank++
	}
	ev := Evaluation{ColumnValues: colVals}
	if nonBlank > 0 {
		ev.Value = colSum / float64(nonBlank)
	}
	return ev
}

func TestEvaluateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		d := randomBoolDataset(r, 3+r.Intn(10), 3+r.Intn(12), 2+r.Intn(2))
		for ci := 0; ci < d.NumClasses(); ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for qn := 0; qn < 4; qn++ {
				q := randomRow(r, d.NumGenes())
				for _, arith := range []Arithmetization{MinCombine, ProductCombine} {
					if err := matchesReference(bst, q, arith); err != nil {
						t.Fatalf("trial %d class %d: %v", trial, ci, err)
					}
				}
			}
		}
	}
}

// matchesReference compares Evaluate against referenceEvaluate. The
// paper's MinCombine runs the column sweep, which must agree bit for bit
// (same float64 bits, NaN for the same blank columns); ProductCombine keeps
// a 1e-12 tolerance.
func matchesReference(bst *BST, q *bitset.Set, arith Arithmetization) error {
	got := bst.Evaluate(q, EvalOptions{Arithmetization: arith})
	want := referenceEvaluate(bst, q, arith)
	same := func(g, w float64) bool {
		if arith == MinCombine {
			return math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
		}
		return math.IsNaN(g) == math.IsNaN(w) && (math.IsNaN(g) || math.Abs(g-w) <= 1e-12)
	}
	if !same(got.Value, want.Value) {
		return fmt.Errorf("arith %v: value %v, reference %v", arith, got.Value, want.Value)
	}
	for c := range want.ColumnValues {
		if g, w := got.ColumnValues[c], want.ColumnValues[c]; !same(g, w) {
			return fmt.Errorf("arith %v col %d: %v vs reference %v", arith, c, g, w)
		}
	}
	return nil
}

// TestCellAccessorsConsistent cross-checks the derived Cell view against
// the pair-list storage: every list a cell reports must be the shared
// (c, h) pair list, and cells must report exactly the outside expressers
// of their gene.
func TestCellAccessorsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		d := randomBoolDataset(r, 8, 10, 2)
		bst, err := NewBST(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < bst.NumColumns(); c++ {
			for g := 0; g < bst.NumGenes(); g++ {
				kind, cls := bst.Cell(g, c)
				inSample := d.Rows[bst.ClassSamples[c]].Contains(g)
				if (kind == CellBlank) == inSample {
					t.Fatalf("cell (g%d, col%d) blankness disagrees with sample contents", g+1, c)
				}
				if kind != CellLists {
					continue
				}
				for _, cc := range cls {
					hRow := d.Rows[bst.OutsideSamples[cc.Outside]]
					if !hRow.Contains(g) {
						t.Fatalf("cell (g%d, col%d) lists non-expresser h=%d", g+1, c, cc.Outside)
					}
					pair := bst.PairClause(c, cc.Outside)
					if pair.Neg != cc.Clause.Neg || !pair.Genes.Equal(cc.Clause.Genes) {
						t.Fatalf("cell (g%d, col%d) clause differs from shared pair list", g+1, c)
					}
				}
			}
		}
	}
}

// TestPairClauseSemantics verifies Algorithm 1 lines 13-18 directly: the
// pair list is h\c negated when non-empty, else c\h positive.
func TestPairClauseSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 30; trial++ {
		d := randomBoolDataset(r, 7, 9, 2)
		bst, err := NewBST(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c, ci := range bst.ClassSamples {
			for h, hi := range bst.OutsideSamples {
				clause := bst.PairClause(c, h)
				hMinusC := bitset.Difference(d.Rows[hi], d.Rows[ci])
				cMinusH := bitset.Difference(d.Rows[ci], d.Rows[hi])
				if !hMinusC.IsEmpty() {
					if !clause.Neg || !clause.Genes.Equal(hMinusC) {
						t.Fatalf("pair (%d,%d): want negated h\\c list", c, h)
					}
				} else if clause.Neg || !clause.Genes.Equal(cMinusH) {
					t.Fatalf("pair (%d,%d): want positive c\\h list", c, h)
				}
			}
		}
	}
}
