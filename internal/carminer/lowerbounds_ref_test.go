package carminer

import (
	"context"
	"sort"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/fault"
)

// mineLowerBoundsReference is the straightforward lower-bound BFS that
// MineLowerBounds replaced, kept as the slow oracle: every candidate gets
// its own gene slice and row set, every frontier grows by append, and every
// step is a shared-counter add. MineLowerBounds must visit the same
// candidates in the same order — same bounds, same counters, same stop
// step.
func mineLowerBoundsReference(ctx context.Context, d *dataset.Bool, g *RuleGroup, nl int, budget Budget) ([]*bitset.Set, error) {
	if nl <= 0 {
		return nil, nil
	}
	genes := g.UpperBound.Indices()
	target := rowsContaining(d, g.UpperBound)

	// cand is a BFS node: a gene subset (sorted) whose support set strictly
	// exceeds the target (a non-generator to extend at the next level).
	type cand struct {
		genes []int
		rows  *bitset.Set
	}

	steps := 0
	stop := func() error {
		steps++
		met.lbSteps.Inc()
		if steps%256 != 0 {
			return nil
		}
		if err := budget.Check(ctx); err != nil {
			return err
		}
		return fault.Hit("carminer.lb")
	}

	var found []*bitset.Set
	emit := func(gs []int) bool {
		met.lbBounds.Inc()
		found = append(found, bitset.FromIndices(d.NumGenes(), gs...))
		return len(found) >= nl
	}
	// Minimality prune: any candidate containing an already-found lower
	// bound is a non-minimal generator and can be dropped.
	hasFoundSubset := func(gs []int) bool {
		for _, f := range found {
			sup := true
			f.ForEach(func(fg int) bool {
				sup = containsSorted(gs, fg)
				return sup
			})
			if sup {
				return true
			}
		}
		return false
	}

	// Level 1: singletons.
	var frontier []cand
	for _, gi := range genes {
		if err := stop(); err != nil {
			return found, err
		}
		rs := rowsWithGene(d, gi)
		if rs.Equal(target) {
			if emit([]int{gi}) {
				return found, nil
			}
			continue
		}
		frontier = append(frontier, cand{genes: []int{gi}, rows: rs})
	}

	// Levels 2..|U|: apriori-style join of frontier pairs sharing an
	// (l-1)-prefix. A joined candidate's support is the intersection of its
	// parents'; it is a lower bound when that support hits the target.
	for len(frontier) > 0 && len(found) < nl {
		met.lbFrontierPeak.SetMax(int64(len(frontier)))
		var next []cand
		for i := 0; i < len(frontier); i++ {
			for j := i + 1; j < len(frontier); j++ {
				a, b := frontier[i], frontier[j]
				if !samePrefixRef(a.genes, b.genes) {
					break // frontier is sorted; later j cannot match either
				}
				if err := stop(); err != nil {
					return found, err
				}
				gs := make([]int, len(a.genes)+1)
				copy(gs, a.genes)
				gs[len(gs)-1] = b.genes[len(b.genes)-1]
				if hasFoundSubset(gs) {
					continue
				}
				rows := bitset.Intersect(a.rows, b.rows)
				if rows.Equal(target) {
					if emit(gs) {
						return found, nil
					}
					continue
				}
				next = append(next, cand{genes: gs, rows: rows})
			}
		}
		frontier = next
	}
	return found, nil
}

func rowsWithGene(d *dataset.Bool, g int) *bitset.Set {
	rs := bitset.New(d.NumSamples())
	for r, row := range d.Rows {
		if row.Contains(g) {
			rs.Add(r)
		}
	}
	return rs
}

func containsSorted(a []int, x int) bool {
	i := sort.SearchInts(a, x)
	return i < len(a) && a[i] == x
}

// samePrefixRef reports whether two equal-length sorted gene lists agree on
// all but the last element (the apriori join condition).
func samePrefixRef(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowsContaining is the support set of a gene set: the rows holding all of
// its genes.
func rowsContaining(d *dataset.Bool, genes *bitset.Set) *bitset.Set {
	rs := bitset.New(d.NumSamples())
	for r, row := range d.Rows {
		if genes.SubsetOf(row) {
			rs.Add(r)
		}
	}
	return rs
}
