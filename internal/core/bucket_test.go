package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// shapeSample is one outside sample of a constructed column: it expresses
// the column's cell genes in cover and n genes of its own, m of them
// outside the query, so its pair value with the column is m/n. A sample
// with n = 0 and every cell in cover is a copy of the column (value 0);
// with n = 0 and fewer cells its list is the positive c\h, worth 1.
type shapeSample struct {
	m, n  int
	cover []int
}

// shapeDataset builds a two-class dataset and a query from column shapes:
// class 0 has one sample per column, a block of cells genes all in the
// query, and class 1 the columns' outside samples in order, each
// expressing its cover of its column's block and its own n genes, the
// first n−m of them in the query. Class 0's table then has the designed
// pair values in each column's cells.
func shapeDataset(cells int, cols [][]shapeSample) (*dataset.Bool, *bitset.Set) {
	genes := cells * len(cols)
	for _, col := range cols {
		for _, h := range col {
			genes += h.n
		}
	}
	d := &dataset.Bool{GeneNames: make([]string, genes), ClassNames: []string{"C1", "C2"}}
	for g := range d.GeneNames {
		d.GeneNames[g] = "g" + itoa(g+1)
	}
	q := bitset.New(genes)
	for g := 0; g < cells*len(cols); g++ {
		q.Add(g)
	}
	for j := range cols {
		row := bitset.New(genes)
		for g := j * cells; g < (j+1)*cells; g++ {
			row.Add(g)
		}
		d.Rows, d.Classes = append(d.Rows, row), append(d.Classes, 0)
	}
	next := cells * len(cols)
	for j, col := range cols {
		for _, h := range col {
			row := bitset.New(genes)
			for _, g := range h.cover {
				row.Add(j*cells + g)
			}
			for i := 0; i < h.n; i++ {
				row.Add(next)
				if i < h.n-h.m {
					q.Add(next)
				}
				next++
			}
			d.Rows, d.Classes = append(d.Rows, row), append(d.Classes, 1)
		}
	}
	return d, q
}

// bucketShapes are the column shapes at the edges of a sweep's value
// buckets, for a table filing its samples under b buckets:
//   - values exactly on the edges b/4, b/2 and 3b/4 (k/b), each beside the
//     nearest value below it that b+1 genes give (k/(b+1), in bucket k−1),
//     the lower one covering a gene the upper one also covers;
//   - five distinct values 1/2 + 1/(2n) piled into bucket b/2, the
//     smallest filed in the middle;
//   - six exact ties at 1/2 beside one sample at 1/3;
//   - values equal to 0, from a copy of the column and from a sample whose
//     genes the query all holds;
//   - values just below 1, in the last bucket;
//   - values equal to 1, from a negated and a positive list, and a black
//     dot.
func bucketShapes(b int) [][]shapeSample {
	half := b / 2
	return [][]shapeSample{
		{
			{1, 4, []int{0, 1}}, {b / 4, b + 1, []int{0}},
			{1, 2, []int{1, 2}}, {half, b + 1, []int{1}},
			{3, 4, []int{2, 3}}, {3 * b / 4, b + 1, []int{2}},
		},
		{
			{(half + 4) / 2, half + 3, []int{0, 1, 2, 3}},
			{(half + 8) / 2, half + 7, []int{0, 1}},
			{(half + 10) / 2, half + 9, []int{1, 2}},
			{(half + 2) / 2, half + 1, []int{2, 3}},
			{(half + 6) / 2, half + 5, []int{3, 0}},
		},
		{
			{1, 2, []int{0, 1}}, {2, 4, []int{1, 2}}, {3, 6, []int{2, 3}},
			{4, 8, []int{3}}, {5, 10, []int{0, 2}}, {6, 12, []int{1, 3}},
			{1, 3, []int{0}},
		},
		{{0, 0, []int{0, 1, 2, 3}}, {0, 3, []int{1}}, {1, 4, []int{2, 3}}},
		{{2 * b, 2*b + 1, []int{0, 1, 2}}, {b, b + 1, []int{2, 3}}},
		{{3, 3, []int{0, 1}}, {0, 0, []int{2}}, {1, 2, []int{1}}},
	}
}

// TestSweepBucketEdges runs BSTCE on the constructed bucket-edge shapes
// and checks every table against referenceEvaluate bit for bit, through
// Evaluate, EvaluateValue, ValuesInto and Decide. A sweep that misplaced a
// value by a bucket, or visited a bucket out of value order, would give
// some cell a larger value than its smallest pair.
func TestSweepBucketEdges(t *testing.T) {
	const b = 128 // sweepBuckets of the shapes' 26 outside samples
	cols := bucketShapes(b)
	d, q := shapeDataset(4, cols)
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepBuckets(len(cl.Tables[0].OutsideSamples)); got != b {
		t.Fatalf("class 0 files %d outside samples under %d buckets, the shapes assume %d",
			len(cl.Tables[0].OutsideSamples), got, b)
	}
	// The values sit where the shapes say: on an edge, one bucket below
	// it, in one bucket, in the last.
	for _, k := range []int{b / 4, b / 2, 3 * b / 4} {
		if on, below := float64(k)/b, float64(k)/(b+1); int(on*b) != k || int(below*b) != k-1 {
			t.Fatalf("edge %d/%d: buckets %d and %d", k, b, int(on*b), int(below*b))
		}
	}
	for _, h := range cols[1] {
		if v := float64(h.m) / float64(h.n); int(v*b) != b/2 {
			t.Fatalf("%d/%d is in bucket %d, not %d", h.m, h.n, int(v*b), b/2)
		}
	}
	for _, h := range cols[4] {
		if v := float64(h.m) / float64(h.n); v >= 1 || int(v*b) != b-1 {
			t.Fatalf("%d/%d is not in the last bucket", h.m, h.n)
		}
	}
	want := referenceValues(cl, q)
	for ci, tb := range cl.Tables {
		if err := matchesReference(tb, q, EvalOptions{}); err != nil {
			t.Fatalf("class %d: %v", ci, err)
		}
		if got := tb.EvaluateValue(q, EvalOptions{}); math.Float64bits(got) != math.Float64bits(want[ci]) {
			t.Fatalf("class %d: EvaluateValue %v, reference %v", ci, got, want[ci])
		}
	}
	if err := classifierMatches(cl, q, want); err != nil {
		t.Fatal(err)
	}
}

// TestSweepVisitsInValueOrder drives a column's filing and visit directly
// with values no pair count gives: each bucket edge k/B beside the value
// one ulp below it, 0, the largest value below 1, 1, exact ties, and
// distinct values one ulp apart in one bucket, shuffled over the outside
// samples. Every gene must take the smallest value among its outside
// expressers below 1, and keep 1 if there is none.
func TestSweepVisitsInValueOrder(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	d := randomBoolDataset(r, 40, 70, 2)
	tb, err := NewBST(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	nh := len(tb.OutsideSamples)
	b := sweepBuckets(nh)
	var palette []float64
	for k := 1; k < b; k += 7 {
		edge := float64(k) / float64(b)
		palette = append(palette, edge, math.Nextafter(edge, 0))
	}
	one := math.Nextafter(1, 0)
	palette = append(palette, 0, one, 1, 0.5, 0.5, 0.5)
	for v, i := 0.3, 0; i < 6; v, i = math.Nextafter(v, 1), i+1 {
		palette = append(palette, v)
	}
	s := tb.getScratch()
	defer tb.putScratch(s)
	vals := make([]float64, nh)
	for trial := 0; trial < 200; trial++ {
		for h := range vals {
			vals[h] = palette[r.Intn(len(palette))]
		}
		genes := randomRow(r, tb.NumGenes())
		s.unresolved.CopyFrom(genes)
		clear(s.heads)
		clear(s.occupied)
		for h, v := range vals {
			if v < 1 {
				s.file(h, v)
			}
		}
		tb.resolve(s, genes.Count()-genes.IntersectionCount(tb.exclusiveGenes))
		s.unresolved.Scatter(s.cells, 1)
		genes.ForEach(func(g int) bool {
			want := 1.0
			tb.geneOutside[g].ForEach(func(h int) bool {
				want = min(want, vals[h])
				return true
			})
			if math.Float64bits(s.cells[g]) != math.Float64bits(want) {
				t.Fatalf("trial %d gene %d: swept %v, smallest expresser %v", trial, g, s.cells[g], want)
			}
			return true
		})
	}
}

// fuzzSeed encodes a two-class dataset and query in FuzzBSTCE's input
// format (see fuzzDataset): genes−1, samples−2, class count 2, then per
// sample from the third on a class-choice bit pair and its genes, then the
// query's genes. The first two samples must be of classes 0 and 1.
func fuzzSeed(d *dataset.Bool, q *bitset.Set) (uint8, uint8, uint8, []byte) {
	if d.NumGenes() > 80 || d.NumSamples() > 15 || d.Classes[0] != 0 || d.Classes[1] != 1 {
		panic(fmt.Sprintf("core: %d genes, %d samples do not fit a FuzzBSTCE seed", d.NumGenes(), d.NumSamples()))
	}
	var bits []bool
	genes := func(s *bitset.Set) {
		for g := 0; g < s.Len(); g++ {
			bits = append(bits, s.Contains(g))
		}
	}
	for i, row := range d.Rows {
		if i >= 2 {
			bits = append(bits, d.Classes[i] == 1, false)
		}
		genes(row)
	}
	genes(q)
	out := make([]byte, (len(bits)+7)/8)
	for i, bit := range bits {
		if bit {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return uint8(d.NumGenes() - 1), uint8(d.NumSamples() - 2), 0, out
}

// bucketSeeds are bucketShapes' shapes at FuzzBSTCE's size, one column
// each with its outside samples (so B is 8, 16 or 32): an edge beside the
// value just below it, distinct values in one bucket, ties, zeros, values
// just below 1, and ones. The column's sample comes first and its first
// outside sample second, as fuzzSeed needs.
func bucketSeeds() [][]shapeSample {
	return [][]shapeSample{
		{{1, 4, []int{0, 1}}, {2, 9, []int{0}}},
		{{6, 11, []int{0, 1, 2}}, {7, 13, []int{0, 1}}, {5, 9, []int{1, 2}}},
		{{1, 2, []int{0, 1}}, {2, 4, []int{1, 2}}, {3, 6, []int{2}}, {1, 3, []int{0}}},
		{{0, 0, []int{0, 1, 2}}, {0, 3, []int{1}}, {1, 4, []int{2}}},
		{{16, 17, []int{0, 1}}, {8, 9, []int{1, 2}}},
		{{3, 3, []int{0, 1}}, {0, 0, []int{2}}, {1, 2, []int{1}}},
	}
}
