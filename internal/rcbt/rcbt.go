// Package rcbt implements RCBT (Refined Classification Based on Top-k
// covering rule groups, Cong et al. SIGMOD'05), the CAR-based classifier the
// BSTC paper benchmarks against in §6.
//
// Training has two expensive phases, timed separately by the experiment
// harness exactly as the paper's Tables 4 and 6 separate them:
//
//  1. Mine: Top-k covering rule group upper bounds per class (package
//     carminer) — a pruned exponential search over the training sample
//     subset space.
//  2. Build: for every mined group, mine nl lower bounds via breadth-first
//     search over the subset space of the group's upper-bound antecedent
//     genes — the phase that blows up when upper bounds have hundreds of
//     genes (§6.2.3) — then assemble k sub-classifiers: the main classifier
//     uses each training row's best covering group, standby classifier j
//     uses each row's j-th best.
//
// Classification matches a query against the main classifier's lower-bound
// rules; if no rule of any class matches, the standby classifiers are tried
// in order, and finally the majority default class is returned. The score
// of class C is the normalized confidence mass of C's matched rules; the
// paper specifies RCBT's scoring only by reference, so we use the published
// shape: score(t, C) = Σ_matched conf·supp / Σ_all conf·supp within the
// sub-classifier.
package rcbt

import (
	"context"
	"fmt"
	"sort"

	"bstc/internal/bitset"
	"bstc/internal/carminer"
	"bstc/internal/dataset"
)

// Config carries the paper's §6 parameters: support=0.7, k=10, nl=20 (10
// classifiers: 1 primary and 9 standby), with nl lowered to 2 when lower
// bound mining cannot finish.
type Config struct {
	MinSupport float64
	K          int
	NL         int
	Budget     carminer.Budget
	// MaxNodes, when positive, is a deterministic per-class node budget for
	// the Top-k miner; exceeding it surfaces carminer.ErrBudgetExceeded
	// exactly like a deadline.
	MaxNodes int
}

// DefaultConfig returns the author-suggested parameter values used
// throughout the paper's evaluation.
func DefaultConfig() Config {
	return Config{MinSupport: 0.7, K: 10, NL: 20}
}

// Rule is one classification rule: a lower bound of a mined rule group,
// carrying the group's support and confidence.
type Rule struct {
	Genes      *bitset.Set
	Class      int
	Support    int
	Confidence float64
}

// Classifier is a trained RCBT ensemble: Sub[0] is the main classifier and
// Sub[1..] the standby classifiers.
type Classifier struct {
	Sub          [][]Rule
	NumClasses   int
	DefaultClass int
	// classMass[j][c] is Σ conf·supp over sub-classifier j's class-c rules.
	classMass [][]float64
}

// Mine runs phase 1 (Top-k covering rule group mining) for every class.
// The result feeds Build; the harness times this call as the paper's
// "Top-k" column. On budget expiry the partial results are returned with
// carminer.ErrBudgetExceeded; a context deadline or cancellation surfaces
// the typed fault.ErrDeadline / fault.ErrCanceled the same way.
func Mine(ctx context.Context, d *dataset.Bool, cfg Config) ([]*carminer.TopKResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	results := make([]*carminer.TopKResult, d.NumClasses())
	for ci := 0; ci < d.NumClasses(); ci++ {
		res, err := carminer.TopKCoveringRuleGroups(ctx, d, ci, carminer.TopKConfig{
			MinSupport: cfg.MinSupport,
			K:          cfg.K,
			Budget:     cfg.Budget,
			MaxNodes:   cfg.MaxNodes,
		})
		results[ci] = res
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Build runs phase 2: lower-bound mining for every group plus classifier
// assembly. The harness times this call (plus classification) as the
// paper's "RCBT" column.
func Build(ctx context.Context, d *dataset.Bool, mined []*carminer.TopKResult, cfg Config) (*Classifier, error) {
	if len(mined) != d.NumClasses() {
		return nil, fmt.Errorf("rcbt: %d mined classes for %d-class data", len(mined), d.NumClasses())
	}
	if cfg.K <= 0 || cfg.NL <= 0 {
		return nil, fmt.Errorf("rcbt: K and NL must be positive (got %d, %d)", cfg.K, cfg.NL)
	}
	cl := &Classifier{
		Sub:          make([][]Rule, cfg.K),
		NumClasses:   d.NumClasses(),
		DefaultClass: majorityClass(d),
	}
	for ci, res := range mined {
		if res == nil {
			return nil, fmt.Errorf("rcbt: class %d has no mining result", ci)
		}
		// Mine lower bounds once per distinct group.
		for _, g := range res.Groups {
			lbs, err := carminer.MineLowerBounds(ctx, d, g, cfg.NL, cfg.Budget)
			if err != nil {
				return nil, err
			}
			g.LowerBounds = lbs
		}
		// Sub-classifier j takes each row's j-th best covering group. Rows
		// are visited in ascending index order so the assembled rule lists
		// (and any rendering of them) never depend on map iteration order.
		rows := make([]int, 0, len(res.PerRow))
		for r := range res.PerRow {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		for j := 0; j < cfg.K; j++ {
			seen := map[*carminer.RuleGroup]bool{}
			for _, r := range rows {
				lst := res.PerRow[r]
				if j >= len(lst) {
					continue
				}
				g := lst[j]
				if seen[g] {
					continue
				}
				seen[g] = true
				for _, lb := range g.LowerBounds {
					cl.Sub[j] = append(cl.Sub[j], Rule{
						Genes:      lb,
						Class:      ci,
						Support:    g.Support,
						Confidence: g.Confidence,
					})
				}
			}
		}
	}
	cl.classMass = make([][]float64, cfg.K)
	for j := range cl.Sub {
		cl.classMass[j] = make([]float64, cl.NumClasses)
		for _, r := range cl.Sub[j] {
			cl.classMass[j][r.Class] += r.Confidence * float64(r.Support)
		}
	}
	return cl, nil
}

// Train is the convenience wrapper running both phases. A budget expiry in
// either phase surfaces as carminer.ErrBudgetExceeded (a DNF in the paper's
// tables).
func Train(ctx context.Context, d *dataset.Bool, cfg Config) (*Classifier, error) {
	mined, err := Mine(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	return Build(ctx, d, mined, cfg)
}

// Classify scores the query against the main classifier; if no rule of any
// class matches, the standby classifiers are consulted in order, and
// finally the majority default class is returned.
func (cl *Classifier) Classify(q *bitset.Set) int {
	for j := range cl.Sub {
		class, matched := cl.scoreSub(j, q)
		if matched {
			return class
		}
	}
	return cl.DefaultClass
}

// Scores returns the per-class normalized scores of the first sub-classifier
// with any matching rule, and that sub-classifier's index; ok is false when
// no rule in the whole ensemble matches.
func (cl *Classifier) Scores(q *bitset.Set) (scores []float64, sub int, ok bool) {
	for j := range cl.Sub {
		s, any := cl.subScores(j, q)
		if any {
			return s, j, true
		}
	}
	return nil, -1, false
}

func (cl *Classifier) subScores(j int, q *bitset.Set) ([]float64, bool) {
	scores := make([]float64, cl.NumClasses)
	matched := false
	for _, r := range cl.Sub[j] {
		if r.Genes.SubsetOf(q) {
			matched = true
			scores[r.Class] += r.Confidence * float64(r.Support)
		}
	}
	if !matched {
		return nil, false
	}
	for c := range scores {
		if cl.classMass[j][c] > 0 {
			scores[c] /= cl.classMass[j][c]
		}
	}
	return scores, true
}

func (cl *Classifier) scoreSub(j int, q *bitset.Set) (int, bool) {
	scores, matched := cl.subScores(j, q)
	if !matched {
		return 0, false
	}
	best, bestV := 0, scores[0]
	for c := 1; c < len(scores); c++ {
		if scores[c] > bestV {
			best, bestV = c, scores[c]
		}
	}
	return best, true
}

// ClassifyBatch classifies every row of a test dataset.
func (cl *Classifier) ClassifyBatch(test *dataset.Bool) []int {
	out := make([]int, test.NumSamples())
	for i, row := range test.Rows {
		out[i] = cl.Classify(row)
	}
	return out
}

// NumRules returns the total number of lower-bound rules across all
// sub-classifiers.
func (cl *Classifier) NumRules() int {
	n := 0
	for _, sub := range cl.Sub {
		n += len(sub)
	}
	return n
}

func majorityClass(d *dataset.Bool) int {
	counts := d.ClassCounts()
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}
