package core

import (
	"bstc/internal/bitset"
	"bstc/internal/carminer"
)

// MineIBRGLowerBounds finds up to nl lower bounds of the interesting
// boolean rule group (§4.2) whose antecedent support set is the given set
// of column positions: the minimal conjunctions of gene-row rule
// antecedents whose combined support equals that set. The group's upper
// bound is the (MC)²BAR mined by Algorithm 3 (its CAR portion is every
// gene whose row support contains the set); lower bounds are the other end
// of the group — the shortest rules with the same support, the form RCBT
// prefers for matching test samples. The search is RCBT's lower-bound BFS
// (carminer.LowerBounds) over the CAR genes' row supports.
//
// For the paper's running example the group with support {s2} has upper
// bound g1 AND g3 AND g6 and exactly two lower bounds, g1 AND g6 and
// g3 AND g6 (§4.2).
func (t *BST) MineIBRGLowerBounds(support *bitset.Set, nl int) []*bitset.Set {
	if nl <= 0 || support.IsEmpty() {
		return nil
	}
	genes := t.carGenes(support).Indices()
	cols := make([]*bitset.Set, len(genes))
	for i, g := range genes {
		cols[i] = t.RowSupport(g)
	}
	return carminer.LowerBounds(t.numGenes, genes, cols, support, nl)
}
