package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"bstc/internal/bitset"
)

// Arithmetization selects how BSTCE combines the satisfaction fractions of a
// cell's exclusion lists into one cell value. The paper's Algorithm 5 uses
// the minimum (line 10, "we don't assume independence and use a min");
// §8 proposes experimenting with alternatives, of which the natural one is
// the independence-assuming product discussed in §5.2.
type Arithmetization int

// Supported arithmetizations.
const (
	// MinCombine is the paper's choice: the cell value is the weakest
	// exclusion list's satisfaction fraction.
	MinCombine Arithmetization = iota
	// ProductCombine multiplies the fractions, assuming the lists exclude
	// independently.
	ProductCombine
)

func (a Arithmetization) String() string {
	switch a {
	case MinCombine:
		return "min"
	case ProductCombine:
		return "product"
	}
	return "unknown"
}

// EvalOptions tunes BSTCE evaluation.
type EvalOptions struct {
	// Arithmetization combines a cell's list fractions (default MinCombine).
	Arithmetization Arithmetization
	// CullListsTo, when > 0, considers only that many exclusion lists per
	// cell — the ones with the shortest (most discriminating) clauses — as
	// §8's proposed per-query cost reduction. 0 means no culling.
	CullListsTo int
}

// Evaluation is the result of running BSTCE against one BST.
type Evaluation struct {
	// Value is Algorithm 5's final return: the mean over non-blank columns
	// of the per-column mean cell value; 0 when every column is blank.
	Value float64
	// ColumnValues[c] is the per-column mean (Algorithm 5 line 14), or NaN
	// for blank columns.
	ColumnValues []float64
}

// Evaluate runs BSTCE (Algorithm 5): it quantizes how well query q satisfies
// the table's atomic cell rules and returns the expectation described in
// §5.2. q is the query's expressed-gene set over the same gene universe.
// The returned ColumnValues are the caller's to keep, so this allocates one
// slice; EvaluateValue is the allocation-free variant for callers that only
// need the scalar.
func (t *BST) Evaluate(q *bitset.Set, opts EvalOptions) Evaluation {
	s := t.getScratch()
	ev := Evaluation{Value: t.evaluate(q, opts, s, nil, nil)}
	ev.ColumnValues = append([]float64(nil), s.colVals...)
	t.putScratch(s)
	return ev
}

// EvaluateValue is Evaluate without the per-column breakdown: the scratch
// state comes from the table's pool, so steady-state calls do not allocate.
// Classifier.ValuesInto runs the same evaluation over pair counts shared by
// every table of the classifier.
func (t *BST) EvaluateValue(q *bitset.Set, opts EvalOptions) float64 {
	s := t.getScratch()
	v := t.evaluate(q, opts, s, nil, nil)
	t.putScratch(s)
	return v
}

// evaluate is Algorithm 5 against caller-provided scratch. s.colVals holds
// the per-column means on return.
//
// The paper's configuration (MinCombine, no culling) resolves each column
// with the exact sweep of sweepColumn, which reads the column's pair
// counts x = |q∩c∩h| from s.x: with pc nil the table counts them itself,
// one batched AND-popcount per column over its outside rows; otherwise pc
// holds the query's counts for every cross-class pair of the classifier,
// computed once for both tables a pair sits in, and l places this table's
// pairs in it. ProductCombine and §8 culling walk each cell with cellValue,
// which counts each pair it needs on demand. Both paths sum a column's
// cell values in ascending gene order, so the sweep's column means are
// bit-identical to the cell walk's, not merely close
// (TestEvaluateMatchesReference and FuzzBSTCE pin this).
func (t *BST) evaluate(q *bitset.Set, opts EvalOptions, s *evalScratch, pc *pairCounts, l *tableLinks) float64 {
	if q.Len() != t.numGenes {
		panic("core: query gene universe does not match BST")
	}
	met.evals.Inc()
	sweep := opts.sweeps()
	if pc == nil {
		t.startQuery(q, s)
	} else {
		t.resetQuery(s)
		l.outsideCounts(s.qOut, pc)
	}

	var colSum float64
	nonBlank := 0
	for c := range t.ClassSamples {
		// Genes considered in this column: expressed by both q and the
		// column sample (Algorithm 5 line 6; Figure 3 keeps only Q's genes).
		if t.startColumn(q, s, c) == 0 {
			continue
		}
		var sum float64
		switch {
		case !sweep:
			s.qAndCol.ForEach(func(g int) bool {
				sum += t.cellValue(s, g, c, opts)
				return true
			})
		case pc == nil:
			s.qAndCol.IntersectionCounts(s.x, t.outsideGenes)
			sum = t.sweepColumn(s, c)
		default:
			l.columnCounts(s.x, pc, c)
			sum = t.sweepColumn(s, c)
		}
		v := sum / float64(s.qc)
		s.colVals[c] = v
		colSum += v
		nonBlank++
	}
	if nonBlank > 0 {
		return colSum / float64(nonBlank)
	}
	return 0
}

// sweeps reports whether opts evaluate with the column sweep: the paper's
// MinCombine without culling.
func (o EvalOptions) sweeps() bool {
	return o.Arithmetization == MinCombine && o.CullListsTo <= 0
}

// sweepColumn returns the sum, in ascending gene order, of the MinCombine
// values of the cells (g, c) with g in s.qAndCol, given the column's pair
// counts in s.x. A cell's value is the smallest pair value over the outside
// samples h expressing g, capped at 1, so rather than walking each gene's
// outside expressers it visits the outside samples once, in ascending pair
// value order: the genes still unresolved that h expresses take h's value
// and are cleared, a whole word of genes at a time (bitset.Extract). The
// sweep stops once every gene is resolved; samples worth 1 or more are
// never visited (the cap), and the genes they would resolve and the black
// dots, which no outside sample expresses, are worth 1.
//
// The order comes from one pass that files each sample worth less than 1
// under value bucket ⌊v·B⌋, B = len(s.heads), and from sorting a bucket by
// value only when the sweep reaches it. B is a power of two, so v·B is
// exact and the buckets cut [0, 1) into ascending ranges of equal width; a
// sweep usually stops within its first few occupied buckets and sorts only
// those.
func (t *BST) sweepColumn(s *evalScratch, c int) float64 {
	s.unresolved.CopyFrom(s.qAndCol)
	if left := s.qc - s.qAndCol.IntersectionCount(t.exclusiveGenes); left > 0 {
		nh := len(t.outsideGenes)
		pairs := t.pairs[c*nh : (c+1)*nh]
		clear(s.heads)
		clear(s.occupied)
		for h, x := range s.x[:nh] {
			if v := pairFraction(pairs[h], int(x), s.qc, int(s.qOut[h])); v < 1 {
				s.file(h, v)
			}
		}
		t.resolve(s, left)
	}
	s.unresolved.Scatter(s.cells, 1)
	return s.qAndCol.Sum(s.cells)
}

// pairRank is outside sample h of a column sweep, worth v, and the next
// sample of its value bucket (its position plus one; 0 ends the bucket).
type pairRank struct {
	v       float64
	h, next int32
}

// file puts outside sample h, worth v in [0, 1), first in bucket ⌊v·B⌋.
func (s *evalScratch) file(h int, v float64) {
	b := int(v * float64(len(s.heads)))
	s.links[h] = pairRank{v: v, h: int32(h), next: s.heads[b]}
	s.heads[b] = int32(h) + 1
	s.occupied[b/64] |= 1 << (b % 64)
}

// resolve visits the filed samples in ascending value order, one occupied
// bucket at a time, giving each sample's value to the unresolved genes it
// expresses, until the left genes still unresolved are. Tied samples may
// come in any order: they resolve their genes to the same value.
func (t *BST) resolve(s *evalScratch, left int) {
	for wi, w := range s.occupied {
		for ; w != 0; w &= w - 1 {
			bucket := s.bucket[:0]
			for next := s.heads[64*wi+bits.TrailingZeros64(w)]; next != 0; next = s.links[next-1].next {
				bucket = append(bucket, s.links[next-1])
			}
			sortByValue(bucket)
			for _, p := range bucket {
				if left -= s.unresolved.Extract(t.outsideGenes[p.h], s.cells, p.v); left == 0 {
					return
				}
			}
		}
	}
}

// sortByValue sorts a bucket by value. Short buckets are the rule and take
// an inlined insertion sort; a long one, such as a column whose samples
// all land in one bucket, takes slices.SortFunc and stays O(n log n).
func sortByValue(r []pairRank) {
	if len(r) > 12 {
		slices.SortFunc(r, func(a, b pairRank) int { return cmp.Compare(a.v, b.v) })
		return
	}
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j].v < r[j-1].v; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// cellValue computes Algorithm 5 lines 7-11 for cell (g, c) of the column
// startColumn made current: 1 for black dots, otherwise the combination of
// the cell's exclusion-list satisfaction fractions. The pair-value cache
// lives in s.
func (t *BST) cellValue(s *evalScratch, g, c int, opts EvalOptions) float64 {
	if t.exclusiveGenes.Contains(g) {
		return 1
	}
	pv := s.column(c, len(t.OutsideSamples))

	outs := t.geneOutside[g]
	// outs spans only the table's outside samples (at most 162 on the paper
	// profiles), so counting it directly costs at most three popcounts.
	if k := opts.CullListsTo; k > 0 && outs.Count() > k {
		// §8's list culling: consider only the cell's k shortest (most
		// discriminating) exclusion lists. The per-column shortest-first
		// order is precomputed on the first culled query, so culling
		// genuinely reduces per-query work instead of adding sorting
		// overhead.
		v := 1.0
		taken := 0
		for _, h := range t.cullOrder(c) {
			if !outs.Contains(h) {
				continue
			}
			f := t.cachedPairValue(s, pv, c, h)
			if opts.Arithmetization == ProductCombine {
				v *= f
			} else if f < v {
				v = f
			}
			taken++
			if taken >= k || v == 0 {
				break
			}
		}
		return v
	}

	switch opts.Arithmetization {
	case ProductCombine:
		v := 1.0
		outs.ForEach(func(h int) bool {
			v *= t.cachedPairValue(s, pv, c, h)
			return v > 0
		})
		return v
	default: // MinCombine
		v := 1.0
		outs.ForEach(func(h int) bool {
			if f := t.cachedPairValue(s, pv, c, h); f < v {
				v = f
			}
			return v > 0
		})
		return v
	}
}

func (t *BST) cachedPairValue(s *evalScratch, pv []float64, c, h int) float64 {
	if math.IsNaN(pv[h]) {
		pv[h] = t.pairValue(s, c, h)
	}
	return pv[h]
}

// pairValue is the satisfaction fraction of the (c, h) exclusion list for
// the query s holds, with column c current: BSTCE's V_e (Algorithm 5 line
// 4, rules.Clause.SatisfactionFraction). It counts x = |q∩c∩h| against
// outside row h with one AND-popcount; the column sweep reads x from its
// batched counts instead.
func (t *BST) pairValue(s *evalScratch, c, h int) float64 {
	p := t.pairs[c*len(t.OutsideSamples)+h]
	if p.n == 0 {
		return 0
	}
	return pairFraction(p, s.qAndCol.IntersectionCount(t.outsideGenes[h]), s.qc, int(s.qOut[h]))
}

// pairFraction computes a pair's satisfaction fraction from counts against
// the rows instead of from its list. With x = |q∩c∩h|, the negated list
// h\c has n − (|q∩h| − x) satisfied literals and the positive list c\h
// has |q∩c| − x. Every count is an integer, so the division is
// SatisfactionFraction's, bit for bit; an empty list is worth 0.
func pairFraction(p pairShape, x, qc, qh int) float64 {
	if p.n == 0 {
		return 0
	}
	sat := qc - x
	if p.neg {
		sat = int(p.n) - (qh - x)
	}
	return float64(sat) / float64(p.n)
}

// cullOrder returns column c's outside positions ordered by ascending
// exclusion-list length, building every column's order on first use.
// sync.Once keeps the build safe under concurrent queries, and tables
// evaluated without CullListsTo never pay for it — the lazy build is what
// keeps artifact cold start proportional to the metadata actually needed
// on the default path.
func (t *BST) cullOrder(c int) []int {
	t.cullOnce.Do(t.buildCullState)
	return t.cullOrders[c]
}

// buildCullState materializes §8's culling order: per column, the outside
// positions sorted by exclusion-list length, ties in ascending position.
// The sort compares the derived pair sizes, not live popcounts, so building
// the orders is O(columns · outside log outside) regardless of the gene
// universe width.
func (t *BST) buildCullState() {
	t.cullOrders = make([][]int, len(t.ClassSamples))
	for c := range t.ClassSamples {
		nh := len(t.OutsideSamples)
		row := t.pairs[c*nh : (c+1)*nh]
		order := make([]int, nh)
		for h := range order {
			order[h] = h
		}
		sort.SliceStable(order, func(a, b int) bool {
			return row[order[a]].n < row[order[b]].n
		})
		t.cullOrders[c] = order
	}
}

// CellSatisfaction returns the BSTCE value of one cell for query q: 1 for a
// black dot, NaN for a blank cell, otherwise the combined satisfaction of
// the cell's exclusion lists. Used for §5.3.2 explanations.
func (t *BST) CellSatisfaction(q *bitset.Set, g, c int, opts EvalOptions) float64 {
	if !t.colGenes[c].Contains(g) {
		return math.NaN()
	}
	s := t.getScratch()
	t.startQuery(q, s)
	t.startColumn(q, s, c)
	v := t.cellValue(s, g, c, opts)
	t.putScratch(s)
	return v
}
