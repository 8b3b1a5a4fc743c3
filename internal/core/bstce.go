package core

import (
	"math"
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
	ev := Evaluation{Value: t.evaluate(q, opts, s)}
	ev.ColumnValues = append([]float64(nil), s.colVals...)
	t.putScratch(s)
	return ev
}

// EvaluateValue is Evaluate without the per-column breakdown: the scratch
// state comes from the table's pool, so steady-state calls do not allocate.
// This is the path Classify and batch classification run on.
func (t *BST) EvaluateValue(q *bitset.Set, opts EvalOptions) float64 {
	s := t.getScratch()
	v := t.evaluate(q, opts, s)
	t.putScratch(s)
	return v
}

// evaluate is Algorithm 5 against caller-provided scratch. s.colVals holds
// the per-column means on return.
//
// The paper's configuration (MinCombine, no culling) resolves each column
// with the exact sweep of sweepColumn; ProductCombine and §8 culling walk
// each cell with cellValue. Both paths sum a column's cell values in
// ascending gene order, so the sweep's column means are bit-identical to
// the cell walk's, not merely close (TestEvaluateMatchesReference and
// FuzzBSTCE pin this).
func (t *BST) evaluate(q *bitset.Set, opts EvalOptions, s *evalScratch) float64 {
	if q.Len() != t.numGenes {
		panic("core: query gene universe does not match BST")
	}
	met.evals.Inc()
	s.reset()
	sweep := opts.Arithmetization == MinCombine && opts.CullListsTo <= 0

	var colSum float64
	nonBlank := 0
	qAndCol := s.qAndCol
	for c := range t.ClassSamples {
		// Genes considered in this column: expressed by both q and the
		// column sample (Algorithm 5 line 6; Figure 3 keeps only Q's genes).
		q.IntersectInto(qAndCol, t.colGenes[c])
		if qAndCol.IsEmpty() {
			continue
		}
		var sum float64
		n := 0
		if sweep {
			t.sweepColumn(q, s, c)
			qAndCol.ForEach(func(g int) bool {
				sum += s.cells[g]
				n++
				return true
			})
		} else {
			qAndCol.ForEach(func(g int) bool {
				sum += t.cellValue(q, s, g, c, opts)
				n++
				return true
			})
		}
		v := sum / float64(n)
		s.colVals[c] = v
		colSum += v
		nonBlank++
	}
	if nonBlank > 0 {
		return colSum / float64(nonBlank)
	}
	return 0
}

// sweepColumn writes the MinCombine value of every cell (g, c) with g in
// s.qAndCol into s.cells[g]. A cell's value is the smallest pair value
// pv[c][h] over the outside samples h expressing g, capped at 1, so rather
// than walking each gene's outside expressers it visits the outside samples
// once, in ascending pv order: the genes still unresolved that h expresses
// take pv[c][h] and are cleared, a whole word of genes at a time. The sweep
// stops once every gene is resolved or pv reaches 1 (the cap). Black dots
// and genes no visited sample expresses keep 1.
func (t *BST) sweepColumn(q *bitset.Set, s *evalScratch, c int) {
	cells := s.cells
	s.qAndCol.ForEach(func(g int) bool {
		cells[g] = 1
		return true
	})
	unresolved := s.qAndCol.AndNotInto(s.unresolved, t.exclusiveGenes)
	left := unresolved.Count()
	if left == 0 {
		return
	}
	ranks := rankHeap(s.ranks)
	for h := range ranks {
		ranks[h] = pairRank{
			v: t.pairList[c][h].SatisfactionFractionSized(q, int(t.pairSize[c][h])),
			h: int32(h),
		}
	}
	ranks.init()
	for len(ranks) > 0 {
		p := ranks.pop()
		if p.v >= 1 {
			return
		}
		left -= unresolved.Extract(t.outsideGenes[p.h], func(g int) { cells[g] = p.v })
		if left == 0 {
			return
		}
	}
}

// pairRank is one outside sample's pair value in a column sweep, packed
// with its position so the heap moves the pair, not an index into pv.
type pairRank struct {
	v float64
	h int32
}

// rankHeap is a binary min-heap of pair ranks by value. A sweep usually
// resolves every gene after visiting a fraction of the outside samples
// (about a fifth on the OC paper profile), so building the heap in O(n)
// and popping only what is visited beats sorting the whole column. Tied
// samples may pop in any order: they resolve their genes to the same value.
type rankHeap []pairRank

func (r rankHeap) init() {
	for i := len(r)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
}

// pop removes and returns the smallest rank.
func (r *rankHeap) pop() pairRank {
	h := *r
	top, n := h[0], len(h)-1
	h[0] = h[n]
	*r = h[:n]
	r.down(0)
	return top
}

func (r rankHeap) down(i int) {
	n := len(r)
	if i >= n {
		return
	}
	x := r[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && r[c+1].v < r[c].v {
			c++
		}
		if r[c].v >= x.v {
			break
		}
		r[i] = r[c]
		i = c
	}
	r[i] = x
}

// cellValue computes Algorithm 5 lines 7-11 for cell (g, c): 1 for black
// dots, otherwise the combination of the cell's exclusion-list satisfaction
// fractions. The pair-value cache lives in s.
func (t *BST) cellValue(q *bitset.Set, s *evalScratch, g, c int, opts EvalOptions) float64 {
	if t.exclusive[g] {
		return 1
	}
	pv := s.column(c, len(t.OutsideSamples))

	outs := t.geneOutside[g]
	// The rank directory answers the covering check in O(1); the scan-based
	// outs.Count() here used to cost a full word pass per cell per query.
	if k := opts.CullListsTo; k > 0 && t.cullIdx()[g].Count() > k {
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
			f := t.pairValue(q, pv, c, h)
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
			v *= t.pairValue(q, pv, c, h)
			return v > 0
		})
		return v
	default: // MinCombine
		v := 1.0
		outs.ForEach(func(h int) bool {
			if f := t.pairValue(q, pv, c, h); f < v {
				v = f
			}
			return v > 0
		})
		return v
	}
}

func (t *BST) pairValue(q *bitset.Set, pv []float64, c, h int) float64 {
	if math.IsNaN(pv[h]) {
		pv[h] = t.pairList[c][h].SatisfactionFractionSized(q, int(t.pairSize[c][h]))
	}
	return pv[h]
}

// cullOrder returns column c's outside positions ordered by ascending
// exclusion-list length. Only valid after cullIdx (or buildCullState) ran.
func (t *BST) cullOrder(c int) []int { return t.cullOrders[c] }

// cullIdx returns the per-gene rank directories, building the whole culling
// state on first use. sync.Once keeps the build safe under concurrent
// queries, and tables evaluated without CullListsTo never pay for it — the
// lazy build is what keeps artifact cold start proportional to the metadata
// actually needed on the default path.
func (t *BST) cullIdx() []*bitset.Index {
	t.cullOnce.Do(t.buildCullState)
	return t.outsideIdx
}

// buildDerived computes the evaluation state every query path touches: the
// pair-clause size cache feeding SatisfactionFractionSized. It runs once at
// construction and once on every load path (the gob classifier stream, the
// mapped artifact). The culling-only state (cull orders, rank directories)
// is built lazily by cullIdx instead, so loads and non-culling queries never
// pay for it.
func (t *BST) buildDerived() {
	t.pairSize = make([][]int32, len(t.pairList))
	for c := range t.pairList {
		sizes := make([]int32, len(t.pairList[c]))
		for h := range t.pairList[c] {
			sizes[h] = int32(t.pairList[c][h].Genes.Count())
		}
		t.pairSize[c] = sizes
	}
}

// buildCullState materializes §8's culling accelerators: per-gene rank
// directories over the outside-expresser sets (O(1) covering checks) and
// per-column outside positions sorted by exclusion-list length. The sort
// compares the cached pairSize values, not live popcounts, so building the
// orders is O(columns · outside log outside) regardless of the gene
// universe width.
func (t *BST) buildCullState() {
	t.outsideIdx = make([]*bitset.Index, len(t.geneOutside))
	for g, outs := range t.geneOutside {
		t.outsideIdx[g] = outs.BuildIndex()
	}
	t.cullOrders = make([][]int, len(t.ClassSamples))
	for c := range t.ClassSamples {
		sizes := t.pairSize[c]
		order := make([]int, len(t.OutsideSamples))
		for h := range order {
			order[h] = h
		}
		sort.SliceStable(order, func(a, b int) bool {
			return sizes[order[a]] < sizes[order[b]]
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
	s.reset()
	v := t.cellValue(q, s, g, c, opts)
	t.putScratch(s)
	return v
}
