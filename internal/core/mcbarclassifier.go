package core

import (
	"math"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// MCBARClassifier is the rule-explicit classifier §4.2 describes and then
// forgoes in favour of BSTC: (i) mine the top-k supported IBRG upper bounds
// per training sample for every class (Algorithm 4), (ii) compute a query
// classification number ∈ [0,1] for each mined (MC)²BAR by quantizing its
// antecedent with the §5.2 machinery, (iii) classify as the class owning
// the rule with the largest number.
//
// The paper notes this scheme is polynomial time but depends on the
// support parameter k — the reason BSTC drops explicit rule generation.
// It is implemented here both as the paper's described alternative and as
// an ablation target: the experiment harness compares it against BSTC on
// accuracy and its k sensitivity.
type MCBARClassifier struct {
	// PerClass[ci] holds class ci's mined rules and the BST that scores
	// them.
	PerClass []MCBARClassRules
	Opts     EvalOptions
	K        int
}

// MCBARClassRules pairs a class's BST with its mined covering rules.
type MCBARClassRules struct {
	Table *BST
	Rules []MCBAR
}

// TrainMCBAR mines per-sample covering (MC)²BARs for every class. A nil
// opts uses the paper defaults (min arithmetization).
func TrainMCBAR(d *dataset.Bool, k int, opts *EvalOptions) (*MCBARClassifier, error) {
	cl, err := Train(d, opts) // reuse validation + BST construction
	if err != nil {
		return nil, err
	}
	out := &MCBARClassifier{Opts: cl.Opts, K: k}
	for _, t := range cl.Tables {
		out.PerClass = append(out.PerClass, MCBARClassRules{
			Table: t,
			Rules: t.MineMCMCBARPerSample(k, MineOptions{}),
		})
	}
	return out, nil
}

// RuleSatisfaction quantizes how well query q satisfies a mined rule of
// this table, following §5.2: the fraction of the rule's CAR genes q
// expresses, times the arithmetized exclusion part — the max over
// supporting samples of the (min or product) combination of their
// exclusion-list satisfaction fractions for the actively excluded outside
// samples. Rules with no excluded samples have exclusion part 1.
func (t *BST) RuleSatisfaction(q *bitset.Set, m MCBAR, opts EvalOptions) float64 {
	nCar := m.CARGenes.Count()
	if nCar == 0 {
		return 0
	}
	carFrac := float64(m.CARGenes.IntersectionCount(q)) / float64(nCar)
	if carFrac == 0 {
		return 0
	}
	if m.Excluded.IsEmpty() {
		return carFrac
	}
	// Pair values count q against the rows: |q∩h| for the excluded outside
	// samples once per rule, then |q∩c| once per supporting column.
	s := t.getScratch()
	defer t.putScratch(s)
	m.Excluded.ForEach(func(h int) bool {
		s.qOut[h] = int32(q.IntersectionCount(t.outsideGenes[h]))
		return true
	})
	best := 0.0
	m.Support.ForEach(func(c int) bool {
		t.startColumn(q, s, c)
		v := 1.0
		m.Excluded.ForEach(func(h int) bool {
			f := t.pairValue(s, c, h)
			if opts.Arithmetization == ProductCombine {
				v *= f
			} else if f < v {
				v = f
			}
			return v > 0
		})
		if v > best {
			best = v
		}
		return best < 1
	})
	return carFrac * best
}

// Scores returns, per class, the largest classification number among the
// class's mined rules.
func (cl *MCBARClassifier) Scores(q *bitset.Set) []float64 {
	scores := make([]float64, len(cl.PerClass))
	for ci, cr := range cl.PerClass {
		best := 0.0
		for _, m := range cr.Rules {
			if v := cr.Table.RuleSatisfaction(q, m, cl.Opts); v > best {
				best = v
			}
		}
		scores[ci] = best
	}
	return scores
}

// Classify returns the smallest class index whose best rule satisfaction is
// maximal (mirroring Algorithm 6's tie-breaking).
func (cl *MCBARClassifier) Classify(q *bitset.Set) int {
	best, bestV := 0, math.Inf(-1)
	for ci, v := range cl.Scores(q) {
		if v > bestV {
			best, bestV = ci, v
		}
	}
	return best
}

// ClassifyBatch classifies every row of a test dataset.
func (cl *MCBARClassifier) ClassifyBatch(test *dataset.Bool) []int {
	out := make([]int, test.NumSamples())
	for i, row := range test.Rows {
		out[i] = cl.Classify(row)
	}
	return out
}

// NumRules returns the total mined rule count across classes.
func (cl *MCBARClassifier) NumRules() int {
	n := 0
	for _, cr := range cl.PerClass {
		n += len(cr.Rules)
	}
	return n
}
