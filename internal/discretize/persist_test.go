package discretize

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bstc/internal/dataset"
)

func persistTestData() *dataset.Continuous {
	return &dataset.Continuous{
		GeneNames:  []string{"sep", "flat", "wide"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 0, 1, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7, 0.1}, {1.2, 7, 0.2}, {1.4, 7, 0.3}, {1.6, 7, 0.35},
			{8.0, 7, 0.9}, {8.2, 7, 0.95}, {8.4, 7, 1.0}, {8.6, 7, 1.1},
		},
	}
}

// rebuild reassembles m from the parts an artifact persists.
func rebuild(t *testing.T, m *Model) *Model {
	t.Helper()
	loaded, err := NewModel(m.NumGenes(), m.GeneCuts, m.ItemNames, m.ClassNames)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestNewModelRoundTrip(t *testing.T) {
	c := persistTestData()
	m, err := Fit(c)
	if err != nil {
		t.Fatal(err)
	}
	loaded := rebuild(t, m)
	if !m.Equal(loaded) {
		t.Fatalf("rebuilt model differs: %+v vs %+v", m, loaded)
	}
	// The transform — the behaviour persistence must preserve — is
	// byte-identical on both datasets and per-row queries.
	want, err := m.Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Rows {
		if !want.Rows[i].Equal(got.Rows[i]) {
			t.Fatalf("row %d transform differs after round trip", i)
		}
		row, err := loaded.TransformRow(c.Values[i])
		if err != nil {
			t.Fatal(err)
		}
		if !want.Rows[i].Equal(row) {
			t.Fatalf("row %d TransformRow differs from batch Transform", i)
		}
	}
}

func TestTransformRowErrors(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TransformRow([]float64{1, 2}); err == nil {
		t.Error("short row should error")
	}
	if _, err := m.TransformRow([]float64{1, 2, math.NaN()}); err == nil {
		t.Error("NaN value should error")
	}
	if _, err := m.TransformRow([]float64{1, math.Inf(1), 3}); err == nil {
		t.Error("Inf value should error")
	}
}

func TestItemIndex(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	idx := m.ItemIndex()
	if len(idx) != m.NumItems() {
		t.Fatalf("index has %d entries for %d items", len(idx), m.NumItems())
	}
	for i, n := range m.ItemNames {
		if idx[n] != i {
			t.Fatalf("item %q indexed at %d, want %d", n, idx[n], i)
		}
	}
}

func TestNewModelRejectsCorruptParts(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	type parts struct {
		numGenes   int
		geneCuts   [][]float64
		itemNames  []string
		classNames []string
	}
	corrupt := func(name string, mutate func(*parts)) {
		t.Helper()
		p := parts{
			numGenes:   m.numGenes,
			geneCuts:   append([][]float64(nil), m.GeneCuts...),
			itemNames:  append([]string(nil), m.ItemNames...),
			classNames: m.ClassNames,
		}
		mutate(&p)
		if _, err := NewModel(p.numGenes, p.geneCuts, p.itemNames, p.classNames); err == nil {
			t.Errorf("%s: corrupt model accepted", name)
		}
	}
	corrupt("gene count mismatch", func(p *parts) { p.numGenes++ })
	corrupt("item arity mismatch", func(p *parts) { p.itemNames = p.itemNames[1:] })
	corrupt("NaN cut", func(p *parts) { p.geneCuts[0] = []float64{math.NaN()} })
	corrupt("unsorted cuts", func(p *parts) {
		p.geneCuts[0] = []float64{2, 1}
		p.itemNames = append(p.itemNames, "extra")
	})
}

func TestNewModelRebuildsDerivedFields(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	loaded := rebuild(t, m)
	if !reflect.DeepEqual(m.Selected, loaded.Selected) {
		t.Errorf("Selected = %v, want %v", loaded.Selected, m.Selected)
	}
	if !reflect.DeepEqual(m.itemBase, loaded.itemBase) {
		t.Errorf("itemBase = %v, want %v", loaded.itemBase, m.itemBase)
	}
	if !reflect.DeepEqual(m.position, loaded.position) {
		t.Errorf("position = %v, want %v", loaded.position, m.position)
	}
}

// TestTransformRowMatchesTransform checks the single-row and batch
// transforms row for row, on a fitted model and on the same model after a
// NewModel round trip, and that Position inverts Selected on both.
func TestTransformRowMatchesTransform(t *testing.T) {
	fitted, err := FitWithWorkers(context.Background(), randomTrain(60, 120, 3), EntropyMDL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.NumSelectedGenes() == 0 || fitted.NumSelectedGenes() == fitted.NumGenes() {
		t.Fatalf("%d of %d genes selected; the check needs some of each", fitted.NumSelectedGenes(), fitted.NumGenes())
	}
	heldOut := randomTrain(60, 40, 4)
	for name, m := range map[string]*Model{"fitted": fitted, "rebuilt": rebuild(t, fitted)} {
		want, err := m.Transform(heldOut)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range heldOut.Values {
			got, err := m.TransformRow(row)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want.Rows[i]) {
				t.Fatalf("%s: row %d: TransformRow %v, Transform %v", name, i, got.Indices(), want.Rows[i].Indices())
			}
		}
		k := 0
		for g := 0; g < m.NumGenes(); g++ {
			want := -1
			if k < len(m.Selected) && m.Selected[k] == g {
				want = k
				k++
			}
			if got := m.Position(g); got != want {
				t.Fatalf("%s: Position(%d) = %d, want %d", name, g, got, want)
			}
		}
	}
}
