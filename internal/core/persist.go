package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"bstc/internal/bitset"
	"bstc/internal/rules"
)

// Model persistence: a trained Classifier serializes to a self-contained
// gob stream so the CLI (and any downstream service) can train once and
// classify many times without re-reading the training data.
//
// The exported Export/BuildClassifier pair is the format-agnostic half:
// it flattens a classifier into plain exported data (and validates and
// reassembles one from it), so alternative encodings — the gob stream
// here, internal/eval's flat memory-mappable v2 layout — share one
// construction and validation path.

// persistFormatVersion guards against reading streams written by an
// incompatible layout.
const persistFormatVersion = 1

// The gob DTO types below ARE the wire format of the classifier stream
// `bstc train` writes (gob encodes their names and field sets); do not
// rename or reorder them. They mirror TableData / ClassifierData, which new
// encodings should use instead.

type classifierDTO struct {
	Version    int
	ClassNames []string
	GeneNames  []string
	Opts       EvalOptions
	Tables     []bstDTO
}

type bstDTO struct {
	Class          int
	ClassSamples   []int
	OutsideSamples []int
	NumGenes       int
	ColGenes       []*bitset.Set
	Exclusive      []bool
	GeneOutside    []*bitset.Set
	// Pair lists flattened row-major: PairGenes[c*len(OutsideSamples)+h].
	PairGenes []*bitset.Set
	PairNeg   []bool
}

// TableData is the serializable content of one BST: every field a save
// format must persist, with the pair lists flattened row-major
// (PairGenes[c*len(OutsideSamples)+h]). Derived evaluation state (cull
// orders, rank directories) is intentionally absent — it is rebuilt by
// BuildClassifier. The one exception is PairSizes, the |PairGenes[i]|
// cache: formats may persist it so loading skips a popcount pass over
// every pair list (the mapped cold-start path does); nil means recompute.
type TableData struct {
	Class          int
	ClassSamples   []int
	OutsideSamples []int
	NumGenes       int
	ColGenes       []*bitset.Set
	Exclusive      []bool
	GeneOutside    []*bitset.Set
	PairGenes      []*bitset.Set
	PairNeg        []bool
	PairSizes      []int32
}

// ClassifierData is the serializable content of a whole Classifier.
type ClassifierData struct {
	ClassNames []string
	GeneNames  []string
	Opts       EvalOptions
	Tables     []TableData
}

// Export flattens the classifier into plain exported data. The bitsets are
// shared, not copied: treat the result as read-only while the classifier
// is live.
func (cl *Classifier) Export() ClassifierData {
	d := ClassifierData{
		ClassNames: cl.ClassNames,
		GeneNames:  cl.GeneNames,
		Opts:       cl.Opts,
	}
	for _, t := range cl.Tables {
		td := TableData{
			Class:          t.Class,
			ClassSamples:   t.ClassSamples,
			OutsideSamples: t.OutsideSamples,
			NumGenes:       t.numGenes,
			ColGenes:       t.colGenes,
			Exclusive:      t.exclusive,
			GeneOutside:    t.geneOutside,
		}
		for _, row := range t.pairList {
			for _, clause := range row {
				td.PairGenes = append(td.PairGenes, clause.Genes)
				td.PairNeg = append(td.PairNeg, clause.Neg)
			}
		}
		for _, sizes := range t.pairSize {
			td.PairSizes = append(td.PairSizes, sizes...)
		}
		d.Tables = append(d.Tables, td)
	}
	return d
}

// BuildClassifier validates flattened classifier data — which may come
// from an untrusted stream or a mapped file — and assembles a ready
// classifier around it, rebuilding all derived evaluation state. The
// bitsets are adopted, not copied, so a caller holding zero-copy views
// onto a mapping pays nothing for the heavy part; they may be frozen
// (classification never mutates table sets).
func BuildClassifier(d ClassifierData) (*Classifier, error) {
	if len(d.ClassNames) == 0 || len(d.Tables) != len(d.ClassNames) {
		return nil, fmt.Errorf("core: classifier has %d tables for %d classes", len(d.Tables), len(d.ClassNames))
	}
	cl := &Classifier{
		ClassNames: d.ClassNames,
		GeneNames:  d.GeneNames,
		Opts:       d.Opts,
	}
	for _, b := range d.Tables {
		t, err := buildTable(b, len(d.GeneNames))
		if err != nil {
			return nil, err
		}
		cl.Tables = append(cl.Tables, t)
	}
	return cl, nil
}

// buildTable checks one table's internal consistency — counts, universes,
// no nil sets — strictly enough that evaluation can never hit a universe
// mismatch panic on data that passed here.
func buildTable(b TableData, numGenes int) (*BST, error) {
	nc, nh := len(b.ClassSamples), len(b.OutsideSamples)
	switch {
	case b.NumGenes != numGenes:
		return nil, fmt.Errorf("core: model table %d spans %d genes, classifier has %d", b.Class, b.NumGenes, numGenes)
	case nc == 0:
		return nil, fmt.Errorf("core: model table %d has no class samples", b.Class)
	case len(b.ColGenes) != nc:
		return nil, fmt.Errorf("core: model table %d has %d column sets for %d columns", b.Class, len(b.ColGenes), nc)
	case len(b.Exclusive) != b.NumGenes:
		return nil, fmt.Errorf("core: model table %d has %d exclusive flags for %d genes", b.Class, len(b.Exclusive), b.NumGenes)
	case len(b.GeneOutside) != b.NumGenes:
		return nil, fmt.Errorf("core: model table %d has %d outside sets for %d genes", b.Class, len(b.GeneOutside), b.NumGenes)
	case len(b.PairGenes) != nc*nh || len(b.PairNeg) != len(b.PairGenes):
		return nil, fmt.Errorf("core: model table %d has inconsistent pair lists", b.Class)
	case b.PairSizes != nil && len(b.PairSizes) != len(b.PairGenes):
		return nil, fmt.Errorf("core: model table %d has %d pair sizes for %d pair lists",
			b.Class, len(b.PairSizes), len(b.PairGenes))
	}
	for c, s := range b.ColGenes {
		if s == nil || s.Len() != b.NumGenes {
			return nil, fmt.Errorf("core: model table %d column %d gene set has universe %s, want %d",
				b.Class, c, setLen(s), b.NumGenes)
		}
	}
	for g, s := range b.GeneOutside {
		if s == nil || s.Len() != nh {
			return nil, fmt.Errorf("core: model table %d gene %d outside set has universe %s, want %d",
				b.Class, g, setLen(s), nh)
		}
	}
	for i, s := range b.PairGenes {
		if s == nil || s.Len() != b.NumGenes {
			return nil, fmt.Errorf("core: model table %d pair %d gene set has universe %s, want %d",
				b.Class, i, setLen(s), b.NumGenes)
		}
	}
	t := &BST{
		Class:          b.Class,
		ClassSamples:   b.ClassSamples,
		OutsideSamples: b.OutsideSamples,
		numGenes:       b.NumGenes,
		colGenes:       b.ColGenes,
		exclusive:      b.Exclusive,
		geneOutside:    b.GeneOutside,
		// The sweep's view of the outside sets is derived, not persisted:
		// transposing the validated GeneOutside makes it agree with
		// cellValue's per-gene walk by construction.
		outsideGenes:   bitset.Transpose(b.GeneOutside, nh),
		exclusiveGenes: geneSet(b.Exclusive),
	}
	t.pairList = make([][]rules.Clause, nc)
	for c := range t.pairList {
		t.pairList[c] = make([]rules.Clause, nh)
		for h := 0; h < nh; h++ {
			idx := c*nh + h
			t.pairList[c][h] = rules.Clause{Genes: b.PairGenes[idx], Neg: b.PairNeg[idx]}
		}
	}
	if b.PairSizes != nil {
		// Adopt the persisted size cache: rows alias the flat slice, and the
		// values are range-checked so an inconsistent file cannot smuggle a
		// size outside what any clause over this universe can have.
		t.pairSize = make([][]int32, nc)
		for c := range t.pairSize {
			row := b.PairSizes[c*nh : (c+1)*nh : (c+1)*nh]
			for h, sz := range row {
				if sz < 0 || int(sz) > b.NumGenes {
					return nil, fmt.Errorf("core: model table %d pair (%d,%d) claims %d genes of %d",
						b.Class, c, h, sz, b.NumGenes)
				}
			}
			t.pairSize[c] = row
		}
	} else {
		t.buildDerived()
	}
	return t, nil
}

func setLen(s *bitset.Set) string {
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("%d", s.Len())
}

// Save writes the classifier to w.
func (cl *Classifier) Save(w io.Writer) error {
	d := cl.Export()
	dto := classifierDTO{
		Version:    persistFormatVersion,
		ClassNames: d.ClassNames,
		GeneNames:  d.GeneNames,
		Opts:       d.Opts,
	}
	// Explicit field copy, not a struct conversion: TableData carries the
	// optional PairSizes cache that the v1 wire format must never learn
	// about (gob would encode the new field and change the byte stream).
	for _, t := range d.Tables {
		dto.Tables = append(dto.Tables, bstDTO{
			Class:          t.Class,
			ClassSamples:   t.ClassSamples,
			OutsideSamples: t.OutsideSamples,
			NumGenes:       t.NumGenes,
			ColGenes:       t.ColGenes,
			Exclusive:      t.Exclusive,
			GeneOutside:    t.GeneOutside,
			PairGenes:      t.PairGenes,
			PairNeg:        t.PairNeg,
		})
	}
	return gob.NewEncoder(w).Encode(dto)
}

// LoadClassifier reads a classifier previously written by Save.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	var dto classifierDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: load classifier: %w", err)
	}
	if dto.Version != persistFormatVersion {
		return nil, fmt.Errorf("core: model format version %d, want %d", dto.Version, persistFormatVersion)
	}
	d := ClassifierData{
		ClassNames: dto.ClassNames,
		GeneNames:  dto.GeneNames,
		Opts:       dto.Opts,
	}
	for _, b := range dto.Tables {
		d.Tables = append(d.Tables, TableData{
			Class:          b.Class,
			ClassSamples:   b.ClassSamples,
			OutsideSamples: b.OutsideSamples,
			NumGenes:       b.NumGenes,
			ColGenes:       b.ColGenes,
			Exclusive:      b.Exclusive,
			GeneOutside:    b.GeneOutside,
			PairGenes:      b.PairGenes,
			PairNeg:        b.PairNeg,
		})
	}
	cl, err := BuildClassifier(d)
	if err != nil {
		return nil, fmt.Errorf("core: load classifier: %w", err)
	}
	return cl, nil
}
