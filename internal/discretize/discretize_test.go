package discretize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bstc/internal/dataset"
)

func TestEntropyMDLPerfectSeparation(t *testing.T) {
	// Two well-separated clusters by class: exactly one cut between them.
	values := []float64{1, 1.1, 1.2, 1.3, 9, 9.1, 9.2, 9.3}
	classes := []int{0, 0, 0, 0, 1, 1, 1, 1}
	cuts := EntropyMDL(values, classes, 2)
	if len(cuts) != 1 {
		t.Fatalf("got %d cuts %v, want 1", len(cuts), cuts)
	}
	if cuts[0] <= 1.3 || cuts[0] >= 9 {
		t.Errorf("cut %v not between the clusters", cuts[0])
	}
}

func TestEntropyMDLNoSignal(t *testing.T) {
	// Random class labels on interleaved values: MDL should reject cuts.
	r := rand.New(rand.NewSource(1))
	values := make([]float64, 40)
	classes := make([]int, 40)
	for i := range values {
		values[i] = r.Float64()
		classes[i] = r.Intn(2)
	}
	cuts := EntropyMDL(values, classes, 2)
	if len(cuts) > 1 {
		t.Errorf("noise gene got %d cuts %v, expected at most 1", len(cuts), cuts)
	}
}

func TestEntropyMDLConstantValues(t *testing.T) {
	values := []float64{5, 5, 5, 5}
	classes := []int{0, 1, 0, 1}
	if cuts := EntropyMDL(values, classes, 2); len(cuts) != 0 {
		t.Errorf("constant gene got cuts %v", cuts)
	}
}

func TestEntropyMDLPureClass(t *testing.T) {
	values := []float64{1, 2, 3, 4}
	classes := []int{0, 0, 0, 0}
	if cuts := EntropyMDL(values, classes, 1); len(cuts) != 0 {
		t.Errorf("pure range got cuts %v", cuts)
	}
}

func TestEntropyMDLTinyInput(t *testing.T) {
	if cuts := EntropyMDL(nil, nil, 2); len(cuts) != 0 {
		t.Errorf("empty input got cuts %v", cuts)
	}
	if cuts := EntropyMDL([]float64{1}, []int{0}, 2); len(cuts) != 0 {
		t.Errorf("single value got cuts %v", cuts)
	}
}

func TestEntropyMDLThreeClasses(t *testing.T) {
	// Three separated clusters: expect two cuts.
	var values []float64
	var classes []int
	for i := 0; i < 10; i++ {
		values = append(values, 1+float64(i)*0.05)
		classes = append(classes, 0)
	}
	for i := 0; i < 10; i++ {
		values = append(values, 5+float64(i)*0.05)
		classes = append(classes, 1)
	}
	for i := 0; i < 10; i++ {
		values = append(values, 9+float64(i)*0.05)
		classes = append(classes, 2)
	}
	cuts := EntropyMDL(values, classes, 3)
	if len(cuts) != 2 {
		t.Fatalf("got %d cuts %v, want 2", len(cuts), cuts)
	}
	if !(cuts[0] > 1.5 && cuts[0] < 5 && cuts[1] > 5.5 && cuts[1] < 9) {
		t.Errorf("cuts %v not between the clusters", cuts)
	}
}

func TestEntropyMDLCutsAreSortedAndStrictlyInsideRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(60)
		values := make([]float64, n)
		classes := make([]int, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range values {
			values[i] = math.Round(r.NormFloat64()*100) / 10 // ties likely
			classes[i] = r.Intn(3)
			lo, hi = math.Min(lo, values[i]), math.Max(hi, values[i])
		}
		cuts := EntropyMDL(values, classes, 3)
		for i, c := range cuts {
			if c <= lo || c >= hi {
				return false
			}
			if i > 0 && cuts[i-1] >= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinBoundaries(t *testing.T) {
	cuts := []float64{1.0, 2.0}
	cases := []struct {
		v    float64
		want int
	}{
		{0.5, 0}, {1.0, 0}, {1.5, 1}, {2.0, 1}, {2.5, 2},
	}
	for _, tc := range cases {
		if got := bin(cuts, tc.v); got != tc.want {
			t.Errorf("bin(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// twoGeneTrain builds a continuous dataset where gene 0 separates the
// classes and gene 1 is constant noise.
func twoGeneTrain() *dataset.Continuous {
	return &dataset.Continuous{
		GeneNames:  []string{"sep", "flat"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7}, {1.2, 7}, {1.4, 7},
			{8.0, 7}, {8.2, 7}, {8.4, 7},
		},
	}
}

func TestFitSelectsInformativeGenes(t *testing.T) {
	m, err := Fit(twoGeneTrain())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSelectedGenes() != 1 || m.Selected[0] != 0 {
		t.Fatalf("selected %v, want [0]", m.Selected)
	}
	if m.NumItems() != 2 {
		t.Fatalf("items = %d, want 2 (one cut, two intervals)", m.NumItems())
	}
	if m.ItemNames[0] != "sep[0]" || m.ItemNames[1] != "sep[1]" {
		t.Errorf("item names = %v", m.ItemNames)
	}
}

func TestTransformOneItemPerSelectedGene(t *testing.T) {
	train := twoGeneTrain()
	m, err := Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, row := range b.Rows {
		if row.Count() != 1 {
			t.Errorf("sample %d expresses %d items, want 1", i, row.Count())
		}
	}
	// Low values (class A) map to item 0, high to item 1.
	for i := 0; i < 3; i++ {
		if !b.Rows[i].Contains(0) {
			t.Errorf("class A sample %d should express sep[0]", i)
		}
	}
	for i := 3; i < 6; i++ {
		if !b.Rows[i].Contains(1) {
			t.Errorf("class B sample %d should express sep[1]", i)
		}
	}
}

func TestTransformRejectsWrongGeneCount(t *testing.T) {
	m, err := Fit(twoGeneTrain())
	if err != nil {
		t.Fatal(err)
	}
	bad := &dataset.Continuous{
		GeneNames:  []string{"only"},
		ClassNames: []string{"A"},
		Classes:    []int{0},
		Values:     [][]float64{{1}},
	}
	if _, err := m.Transform(bad); err == nil {
		t.Error("Transform should reject mismatched gene count")
	}
}

func TestFitWithEqualWidth(t *testing.T) {
	train := twoGeneTrain()
	m, err := FitWithWorkers(context.Background(), train, EqualWidthK(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Gene 0 spans [1, 8.4] → 3 cuts; gene 1 is constant → dropped.
	if m.NumSelectedGenes() != 1 {
		t.Fatalf("selected %v, want only gene 0", m.Selected)
	}
	if len(m.GeneCuts[0]) != 3 {
		t.Errorf("equal-width cuts = %v, want 3", m.GeneCuts[0])
	}
	if len(m.GeneCuts[1]) != 0 {
		t.Errorf("constant gene should get no cuts, got %v", m.GeneCuts[1])
	}
}

func TestEqualWidthDegenerate(t *testing.T) {
	if got := EqualWidthK(1)([]float64{1, 2}, nil, 0); got != nil {
		t.Errorf("k=1 should yield no cuts, got %v", got)
	}
}

func TestFitWithEqualFrequency(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	cuts := EqualFrequencyK(4)(values, nil, 0)
	if len(cuts) != 3 {
		t.Fatalf("got %d cuts %v, want 3", len(cuts), cuts)
	}
	// Each bin has 2 samples.
	for i, want := range []float64{2.5, 4.5, 6.5} {
		if cuts[i] != want {
			t.Errorf("cut %d = %v, want %v", i, cuts[i], want)
		}
	}
}

func TestEqualFrequencyWithHeavyTies(t *testing.T) {
	values := []float64{1, 1, 1, 1, 1, 1, 9}
	cuts := EqualFrequencyK(3)(values, nil, 0)
	// Only the boundary between the tie block and 9 is a valid cut.
	if len(cuts) > 1 {
		t.Errorf("tie-heavy values got cuts %v", cuts)
	}
}

func TestEndToEndDiscretizedBSTCReady(t *testing.T) {
	// The discretizer output feeds the core classifier without surprises.
	train := twoGeneTrain()
	m, err := Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumClasses() != 2 || b.NumSamples() != 6 {
		t.Fatalf("unexpected transformed shape %+v", b)
	}
	if len(b.DuplicateSamplePairs()) != 0 {
		t.Error("separable data should not produce cross-class duplicates")
	}
}

func TestFitRejectsInvalid(t *testing.T) {
	bad := &dataset.Continuous{GeneNames: []string{"g"}, ClassNames: []string{"A"},
		Classes: []int{0, 0}, Values: [][]float64{{1}}}
	if _, err := Fit(bad); err == nil {
		t.Error("Fit should reject invalid dataset")
	}
	empty := &dataset.Continuous{GeneNames: []string{"g"}, ClassNames: []string{"A"}}
	if _, err := Fit(empty); err == nil {
		t.Error("Fit should reject empty dataset")
	}
}

func TestFitAndTransformRejectNonFinite(t *testing.T) {
	// A NaN expression value would otherwise bin silently into the top
	// interval (every "v <= cut" comparison is false for NaN), and ±Inf
	// poisons equal-width ranges — both must be rejected up front.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := &dataset.Continuous{
			GeneNames: []string{"g"}, ClassNames: []string{"A", "B"},
			Classes: []int{0, 1}, Values: [][]float64{{1}, {v}},
		}
		if _, err := Fit(bad); err == nil {
			t.Errorf("Fit should reject value %v", v)
		}
	}
	m, err := Fit(twoGeneTrain())
	if err != nil {
		t.Fatal(err)
	}
	nan := &dataset.Continuous{
		GeneNames: []string{"sep", "flat"}, ClassNames: []string{"A"},
		Classes: []int{0}, Values: [][]float64{{math.NaN(), 7}},
	}
	if _, err := m.Transform(nan); err == nil {
		t.Error("Transform should reject NaN in query data")
	}
}

// randomTrain builds a dense random training matrix with class-correlated
// columns sprinkled in, large enough that parallel fitting exercises many
// chunks.
func randomTrain(genes, samples int, seed int64) *dataset.Continuous {
	r := rand.New(rand.NewSource(seed))
	c := &dataset.Continuous{
		GeneNames:  make([]string, genes),
		ClassNames: []string{"A", "B"},
		Classes:    make([]int, samples),
		Values:     make([][]float64, samples),
	}
	for g := range c.GeneNames {
		c.GeneNames[g] = fmt.Sprintf("g%d", g)
	}
	for i := range c.Values {
		c.Classes[i] = i % 2
		row := make([]float64, genes)
		for g := range row {
			row[g] = r.NormFloat64()
			if g%7 == 0 { // informative gene: shift by class
				row[g] += 3 * float64(c.Classes[i])
			}
		}
		c.Values[i] = row
	}
	return c
}

// TestFitWithWorkersMatchesSerial diffs the striped fit, at every worker
// count, against a reference built here the plain way: EntropyMDL on each
// gene's column in turn, then the item vocabulary in gene order.
func TestFitWithWorkersMatchesSerial(t *testing.T) {
	train := randomTrain(253, 40, 11)
	var (
		cuts     = make([][]float64, train.NumGenes())
		selected []int
		names    []string
		itemBase []int
	)
	col := make([]float64, train.NumSamples())
	for g := range cuts {
		for i, row := range train.Values {
			col[i] = row[g]
		}
		cuts[g] = EntropyMDL(col, train.Classes, train.NumClasses())
		if len(cuts[g]) == 0 {
			continue
		}
		selected = append(selected, g)
		itemBase = append(itemBase, len(names))
		for b := 0; b <= len(cuts[g]); b++ {
			names = append(names, fmt.Sprintf("%s[%d]", train.GeneNames[g], b))
		}
	}
	if len(selected) == 0 {
		t.Fatal("determinism check is vacuous: no genes selected")
	}
	for _, workers := range []int{1, 2, 3, 8, 64, 1000} {
		m, err := FitWithWorkers(context.Background(), train, EntropyMDL, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.GeneCuts, cuts) {
			t.Fatalf("workers=%d: gene cuts differ from the gene-by-gene fit", workers)
		}
		if !reflect.DeepEqual(m.Selected, selected) ||
			!reflect.DeepEqual(m.ItemNames, names) ||
			!reflect.DeepEqual(m.itemBase, itemBase) {
			t.Fatalf("workers=%d: item vocabulary differs from the gene-by-gene fit", workers)
		}
	}
}
