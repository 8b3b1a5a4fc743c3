package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/rules"
	"bstc/internal/synth"
)

// pairListsReference materializes every shared exclusion list the way
// Algorithm 1 lines 13-18 read, straight from the table's rows: the negated
// list h\c when it is non-empty, else the positive list c\h (empty for
// identical samples). It is the oracle the derived pair shapes and values
// answer to.
func pairListsReference(t *BST) [][]rules.Clause {
	lists := make([][]rules.Clause, len(t.colGenes))
	for c, cg := range t.colGenes {
		lists[c] = make([]rules.Clause, len(t.outsideGenes))
		for h, hg := range t.outsideGenes {
			if l := bitset.Difference(hg, cg); !l.IsEmpty() {
				lists[c][h] = rules.Clause{Genes: l, Neg: true}
				continue
			}
			lists[c][h] = rules.Clause{Genes: bitset.Difference(cg, hg)}
		}
	}
	return lists
}

// referenceEvaluate is a naive, cell-by-cell transliteration of Algorithm 5
// over the materialized lists of pairListsReference: every non-blank cell
// takes each of its exclusion lists' satisfaction fractions independently,
// combines them with min (or product) — a black dot, with no outside
// expresser, keeps 1 — and the values average down columns and across
// non-blank columns. Under §8's culling to k lists, a cell with more than k
// outside expressers keeps its k shortest lists, ties broken by ascending
// outside position, and combines them in that order; every other cell
// combines all its lists in ascending position. The optimized Evaluate
// (derived pair values, lazy computation, the column sweep) must agree
// with it exactly.
func referenceEvaluate(t *BST, q *bitset.Set, opts EvalOptions) Evaluation {
	lists := pairListsReference(t)
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
			if !q.Contains(g) || !t.colGenes[c].Contains(g) {
				continue
			}
			hs := t.geneOutside[g].Indices()
			if k := opts.CullListsTo; k > 0 && len(hs) > k {
				sort.SliceStable(hs, func(a, b int) bool {
					return lists[c][hs[a]].Genes.Count() < lists[c][hs[b]].Genes.Count()
				})
				hs = hs[:k]
			}
			v := 1.0
			for _, h := range hs {
				f := lists[c][h].SatisfactionFraction(q)
				if opts.Arithmetization == ProductCombine {
					v *= f
				} else if f < v {
					v = f
				}
			}
			sum += v
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

// TestEvaluateMatchesReference checks Evaluate against referenceEvaluate
// on random tables, under both arithmetizations, unculled and culled to 1,
// 2 and 8 lists. The last ten tables have 33–42 samples: more outside
// samples than the 12 elements up to which sort.Slice is an insertion sort
// (and so stable), and short enough lists to tie often, so a cull order
// that broke ties other than by ascending position would show.
func TestEvaluateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 70; trial++ {
		samples, genes := 3+r.Intn(10), 3+r.Intn(12)
		if trial >= 60 {
			samples, genes = samples+30, genes+9
		}
		d := randomBoolDataset(r, samples, genes, 2+r.Intn(2))
		for ci := 0; ci < d.NumClasses(); ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for qn := 0; qn < 4; qn++ {
				q := randomRow(r, d.NumGenes())
				for _, arith := range []Arithmetization{MinCombine, ProductCombine} {
					for _, cull := range []int{0, 1, 2, 8} {
						opts := EvalOptions{Arithmetization: arith, CullListsTo: cull}
						if err := matchesReference(bst, q, opts); err != nil {
							t.Fatalf("trial %d class %d: %v", trial, ci, err)
						}
					}
				}
			}
		}
	}
}

// matchesReference compares Evaluate against referenceEvaluate. The
// paper's MinCombine runs the column sweep, and a culled evaluation
// combines its lists in the reference's order, so both must agree bit for
// bit (same float64 bits, NaN for the same blank columns); unculled
// ProductCombine keeps a 1e-12 tolerance.
func matchesReference(bst *BST, q *bitset.Set, opts EvalOptions) error {
	got := bst.Evaluate(q, opts)
	want := referenceEvaluate(bst, q, opts)
	exact := opts.Arithmetization == MinCombine || opts.CullListsTo > 0
	same := func(g, w float64) bool {
		if exact {
			return math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
		}
		return math.IsNaN(g) == math.IsNaN(w) && (math.IsNaN(g) || math.Abs(g-w) <= 1e-12)
	}
	if !same(got.Value, want.Value) {
		return fmt.Errorf("%+v: value %v, reference %v", opts, got.Value, want.Value)
	}
	for c := range want.ColumnValues {
		if g, w := got.ColumnValues[c], want.ColumnValues[c]; !same(g, w) {
			return fmt.Errorf("%+v col %d: %v vs reference %v", opts, c, g, w)
		}
	}
	return nil
}

// TestCellAccessorsConsistent cross-checks the Cell view against the
// materialized pair lists: every list a cell reports must be the shared
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
		lists := pairListsReference(bst)
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
					pair := lists[c][cc.Outside]
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

// checkPairsAgainstReference checks every derived (c, h) pair of bst
// against the materialized lists: PairClause must build the reference
// list, the derived shape must be its size and polarity, and for every
// query the derived pair value must equal the list's SatisfactionFraction
// bit for bit.
func checkPairsAgainstReference(t *testing.T, bst *BST, queries []*bitset.Set) {
	t.Helper()
	lists := pairListsReference(bst)
	for c := range lists {
		for h, want := range lists[c] {
			if got := bst.PairClause(c, h); got.Neg != want.Neg || !got.Genes.Equal(want.Genes) {
				t.Fatalf("class %d pair (%d,%d): PairClause %v, reference %v", bst.Class, c, h, got, want)
			}
			if p := bst.pairs[c*bst.NumOutside()+h]; int(p.n) != want.Genes.Count() || p.neg != want.Neg {
				t.Fatalf("class %d pair (%d,%d): derived shape %+v, reference list %v", bst.Class, c, h, p, want)
			}
		}
	}
	s := bst.getScratch()
	defer bst.putScratch(s)
	for _, q := range queries {
		bst.startQuery(q, s)
		for c := range lists {
			bst.startColumn(q, s, c)
			for h, want := range lists[c] {
				got, ref := bst.pairValue(s, c, h), want.SatisfactionFraction(q)
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("class %d pair (%d,%d) query %v: derived value %v, reference %v", bst.Class, c, h, q, got, ref)
				}
			}
		}
	}
}

// TestPairDerivationMatchesReference pins the derived pair shapes and
// values against the materialized lists on random tables, on the small
// paper profiles, and on a hand-built table with the cases random data
// rarely draws: an outside sample that is a proper subset of a column (the
// positive list), an identical one (the empty list, n = 0), and an empty
// one (the whole column as a positive list). The hand-built table is also
// evaluated under every query against referenceEvaluate.
func TestPairDerivationMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		d := randomBoolDataset(r, 3+r.Intn(10), 3+r.Intn(70), 2+r.Intn(2))
		var queries []*bitset.Set
		for qn := 0; qn < 4; qn++ {
			queries = append(queries, randomRow(r, d.NumGenes()))
		}
		for ci := range d.ClassNames {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			checkPairsAgainstReference(t, bst, queries)
		}
	}

	for _, p := range synth.PaperProfiles(synth.Small) {
		c, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		m, err := discretize.Fit(c)
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.Transform(c)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range d.ClassNames {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			checkPairsAgainstReference(t, bst, d.Rows[:6])
		}
	}

	// Columns {g1,g2,g3} and {g4}; outside samples {g1,g2} ⊂ the first
	// column, {g1,g2,g3} identical to it, {g4,g5}, and the empty row.
	d := &dataset.Bool{
		GeneNames:  []string{"g1", "g2", "g3", "g4", "g5"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 1, 1, 1, 1},
		Rows: []*bitset.Set{
			bitset.FromIndices(5, 0, 1, 2), bitset.FromIndices(5, 3),
			bitset.FromIndices(5, 0, 1), bitset.FromIndices(5, 0, 1, 2),
			bitset.FromIndices(5, 3, 4), bitset.New(5),
		},
	}
	bst, err := NewBST(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []pairShape{
		{n: 1}, {n: 0}, {n: 2, neg: true}, {n: 3},
		{n: 2, neg: true}, {n: 3, neg: true}, {n: 1, neg: true}, {n: 1},
	}
	if !reflect.DeepEqual(bst.pairs, want) {
		t.Fatalf("derived pair shapes %+v, want %+v", bst.pairs, want)
	}
	var queries []*bitset.Set
	for mask := 0; mask < 1<<5; mask++ {
		q := bitset.New(5)
		for g := 0; g < 5; g++ {
			if mask>>g&1 == 1 {
				q.Add(g)
			}
		}
		queries = append(queries, q)
		for _, arith := range []Arithmetization{MinCombine, ProductCombine} {
			if err := matchesReference(bst, q, EvalOptions{Arithmetization: arith}); err != nil {
				t.Fatalf("query %v: %v", q, err)
			}
		}
	}
	checkPairsAgainstReference(t, bst, queries)
}
