package core

import (
	"fmt"
	"math"
	"sort"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

// Classifier is the Boolean Structure Table Classifier (BSTC, Algorithm 6):
// one BST per class plus the BSTCE evaluation options. It is parameter-free
// (the options default to the paper's choices) and handles any number of
// classes (§5.3).
type Classifier struct {
	Tables     []*BST
	ClassNames []string
	GeneNames  []string
	Opts       EvalOptions
}

// Train builds a BSTC classifier from discretized training data. Training is
// O(|S|²·|G|) time and space (§5.3.1). A nil opts uses the paper's defaults
// (min arithmetization, no exclusion-list culling).
func Train(d *dataset.Bool, opts *EvalOptions) (*Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cl := &Classifier{
		ClassNames: d.ClassNames,
		GeneNames:  d.GeneNames,
	}
	if opts != nil {
		cl.Opts = *opts
	}
	counts := d.ClassCounts()
	for ci := range d.ClassNames {
		if counts[ci] == 0 {
			return nil, fmt.Errorf("core: class %q has no training samples", d.ClassNames[ci])
		}
		t, err := NewBST(d, ci)
		if err != nil {
			return nil, err
		}
		cl.Tables = append(cl.Tables, t)
	}
	return cl, nil
}

// Values returns the classification value CV(i) = BSTCE(T(i), Q) for every
// class.
func (cl *Classifier) Values(q *bitset.Set) []float64 {
	return cl.ValuesInto(make([]float64, len(cl.Tables)), q)
}

// ValuesInto writes the classification values into dst (which must have one
// slot per class) and returns it, allocating nothing itself.
func (cl *Classifier) ValuesInto(dst []float64, q *bitset.Set) []float64 {
	for i, t := range cl.Tables {
		dst[i] = t.EvaluateValue(q, cl.Opts)
	}
	return dst
}

// Decide is the single-pass classification of q: one BSTCE evaluation per
// table, then Algorithm 6's argmax and §8's confidence over the same
// values. It returns exactly what Classify and Confidence return, for the
// cost of one of them, and allocates nothing for up to eight classes.
func (cl *Classifier) Decide(q *bitset.Set) (class int, confidence float64) {
	var buf [8]float64
	if n := len(cl.Tables); n > len(buf) {
		return cl.DecideInto(make([]float64, n), q)
	}
	return cl.DecideInto(buf[:len(cl.Tables)], q)
}

// DecideInto is Decide that also leaves the classification values in dst,
// which must have one slot per class.
func (cl *Classifier) DecideInto(dst []float64, q *bitset.Set) (class int, confidence float64) {
	met.queries.Inc()
	return decideValues(cl.ValuesInto(dst, q))
}

// decideValues turns classification values into Algorithm 6's class — the
// smallest index whose value is maximal — and §8's confidence heuristic:
// the normalized difference between the highest and second-highest value,
// in [0, 1], and 0 when no value is positive. A single class is decided
// with confidence 1 whatever its value; Adaptive's argmaxWithConfidence
// gives a single non-positive value 0 instead, so the two rules differ
// there on purpose.
func decideValues(vals []float64) (class int, confidence float64) {
	first, second := math.Inf(-1), math.Inf(-1)
	for i, v := range vals {
		if v > first {
			class, first, second = i, v, first
		} else if v > second {
			second = v
		}
	}
	switch {
	case len(vals) < 2:
		return class, 1
	case first <= 0:
		return class, 0
	}
	return class, (first - second) / first
}

// Classify implements Algorithm 6: it returns the smallest class index whose
// classification value is maximal.
func (cl *Classifier) Classify(q *bitset.Set) int {
	class, _ := cl.Decide(q)
	return class
}

// ClassifyBatch classifies every row of a test dataset (which must share the
// training gene universe) and returns the predicted class indices.
func (cl *Classifier) ClassifyBatch(test *dataset.Bool) []int {
	out := make([]int, test.NumSamples())
	for i, row := range test.Rows {
		out[i] = cl.Classify(row)
	}
	return out
}

// Confidence returns §8's proposed classification confidence heuristic: the
// normalized difference between the highest and second-highest BST
// satisfaction levels, in [0, 1]. Single-class classifiers return 1. Callers
// that also need the class should use Decide, which evaluates once.
func (cl *Classifier) Confidence(q *bitset.Set) float64 {
	_, conf := cl.Decide(q)
	return conf
}

// Explanation is one atomic cell rule supporting a classification (§5.3.2):
// the cell's gene and supporting training sample, the query's satisfaction
// level for the cell, and the full cell rule.
type Explanation struct {
	Gene         int     // gene row of the cell
	SampleIndex  int     // dataset index of the supporting class sample
	Satisfaction float64 // BSTCE cell value for the query
	Rule         rules.BAR
}

// Explain justifies classifying q as class ci by returning all T(ci) atomic
// cell rules with satisfaction level ≥ minSat, strongest first (§5.3.2).
// Only cells whose gene the query expresses are reported, mirroring BSTCE.
func (cl *Classifier) Explain(q *bitset.Set, ci int, minSat float64) []Explanation {
	t := cl.Tables[ci]
	var out []Explanation
	s := t.getScratch()
	defer t.putScratch(s)
	s.reset()
	qAndCol := s.qAndCol
	for c := range t.ClassSamples {
		q.IntersectInto(qAndCol, t.colGenes[c])
		qAndCol.ForEach(func(g int) bool {
			v := t.cellValue(q, s, g, c, cl.Opts)
			if v >= minSat {
				out = append(out, Explanation{
					Gene:         g,
					SampleIndex:  t.ClassSamples[c],
					Satisfaction: v,
					Rule:         t.CellRule(g, c),
				})
			}
			return true
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Satisfaction > out[j].Satisfaction })
	return out
}
