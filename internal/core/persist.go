package core

import (
	"fmt"

	"bstc/internal/bitset"
)

// Model persistence: Export flattens a trained Classifier into plain
// exported data, its training rows, and BuildClassifier validates and
// reassembles one from such data, deriving everything else. The one
// encoding of that data is internal/eval's artifact image (written by
// `bstc artifact`, loaded by eval.LoadArtifactMapped), whose encoder and
// decoder go through this pair, so a model read from a file passes the
// same checks as one built in memory.

// TableData is the serializable content of one BST: its training rows, the
// only state the artifact persists. Everything else is derived: black dots
// and pair shapes by BuildClassifier, cull orders on the first culled query.
type TableData struct {
	Class          int
	ClassSamples   []int
	OutsideSamples []int
	NumGenes       int
	ColGenes       []*bitset.Set
	GeneOutside    []*bitset.Set
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
		d.Tables = append(d.Tables, TableData{
			Class:          t.Class,
			ClassSamples:   t.ClassSamples,
			OutsideSamples: t.OutsideSamples,
			NumGenes:       t.numGenes,
			ColGenes:       t.colGenes,
			GeneOutside:    t.geneOutside,
		})
	}
	return d
}

// BuildClassifier validates flattened classifier data — which may come
// from an untrusted file — and assembles a ready classifier around it,
// deriving all other table state. The tables must
// come from one training set, as Train's do: every sample a column of one
// table and outside every other, with the same row in each (sharePairs).
// The bitsets are adopted, not copied, so a caller holding zero-copy views
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
	sp, err := sharePairs(cl.Tables, len(d.GeneNames))
	if err != nil {
		return nil, err
	}
	cl.shared = sp
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
	case len(b.GeneOutside) != b.NumGenes:
		return nil, fmt.Errorf("core: model table %d has %d outside sets for %d genes", b.Class, len(b.GeneOutside), b.NumGenes)
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
	t := &BST{
		Class:          b.Class,
		ClassSamples:   b.ClassSamples,
		OutsideSamples: b.OutsideSamples,
		numGenes:       b.NumGenes,
		colGenes:       b.ColGenes,
		geneOutside:    b.GeneOutside,
		// The outside rows are the validated GeneOutside transposed, so they
		// agree with cellValue's per-gene walk by construction.
		outsideGenes: bitset.Transpose(b.GeneOutside, nh),
	}
	t.derive()
	return t, nil
}

func setLen(s *bitset.Set) string {
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("%d", s.Len())
}
