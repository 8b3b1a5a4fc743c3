package discretize

import (
	"fmt"
	"math"

	"bstc/internal/bitset"
)

// NewModel assembles a model from its persisted parts — gene count, per-gene
// cut points, item and class vocabularies — as internal/eval's artifact
// loader decodes them. The parts are validated structurally (cut ordering
// and finiteness, item-name arity) and the derived index fields (Selected,
// itemBase, position) are rebuilt, so a model accepted here transforms data
// exactly as the fitted one it was saved from.
func NewModel(numGenes int, geneCuts [][]float64, itemNames, classNames []string) (*Model, error) {
	if numGenes != len(geneCuts) {
		return nil, fmt.Errorf("discretize: model has cuts for %d genes, claims %d", len(geneCuts), numGenes)
	}
	m := &Model{
		GeneCuts:   geneCuts,
		ItemNames:  itemNames,
		ClassNames: classNames,
		numGenes:   numGenes,
	}
	for g, cuts := range m.GeneCuts {
		for i, c := range cuts {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("discretize: gene %d has non-finite cut %v", g, c)
			}
			if i > 0 && !(cuts[i-1] < c) {
				return nil, fmt.Errorf("discretize: gene %d cuts not strictly ascending", g)
			}
		}
	}
	if items := m.index(); items != len(m.ItemNames) {
		return nil, fmt.Errorf("discretize: model has %d item names for %d intervals", len(m.ItemNames), items)
	}
	return m, nil
}

// NumGenes returns the gene count of the continuous data the model was
// fitted on (the required input width of Transform and TransformRow).
func (m *Model) NumGenes() int { return m.numGenes }

// TransformRow maps one continuous sample (len = NumGenes, finite values)
// into the boolean item representation — the single-query analogue of
// Transform, used by the serving path where samples arrive one at a time.
func (m *Model) TransformRow(values []float64) (*bitset.Set, error) {
	if len(values) != m.numGenes {
		return nil, fmt.Errorf("discretize: sample has %d values, model fitted on %d genes", len(values), m.numGenes)
	}
	for j, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("discretize: gene %d has non-finite expression value %v", j, v)
		}
	}
	r := bitset.New(len(m.ItemNames))
	for k, g := range m.Selected {
		r.Add(m.Item(k, values[g]))
	}
	return r, nil
}

// ItemIndex resolves item names (as in ItemNames, e.g. "g12[1]") to item
// indices — the lookup serving needs to accept pre-discretized queries.
// Build it once per loaded model.
func (m *Model) ItemIndex() map[string]int {
	idx := make(map[string]int, len(m.ItemNames))
	for i, n := range m.ItemNames {
		idx[n] = i
	}
	return idx
}

func sortedCutsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two models induce the same transform: same gene
// count, cuts, and item vocabulary. Sorting is part of the fitted state, so
// plain slice comparison suffices.
func (m *Model) Equal(o *Model) bool {
	if m.numGenes != o.numGenes || len(m.GeneCuts) != len(o.GeneCuts) ||
		len(m.ItemNames) != len(o.ItemNames) || len(m.ClassNames) != len(o.ClassNames) {
		return false
	}
	for g := range m.GeneCuts {
		if !sortedCutsEqual(m.GeneCuts[g], o.GeneCuts[g]) {
			return false
		}
	}
	for i := range m.ItemNames {
		if m.ItemNames[i] != o.ItemNames[i] {
			return false
		}
	}
	for i := range m.ClassNames {
		if m.ClassNames[i] != o.ClassNames[i] {
			return false
		}
	}
	return true
}
