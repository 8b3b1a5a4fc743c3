// Package core implements the BSTC paper's primary contribution: Boolean
// Structure Tables (Algorithm 1), gene-row BAR generation (Algorithm 2),
// (MC)²BAR mining (Algorithms 3 and 4), BST cell-rule quantized evaluation
// (Algorithm 5, BSTCE) and the BSTC classifier itself (Algorithm 6).
package core

import (
	"fmt"
	"strings"
	"sync"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

// BST is the Boolean Structure Table T(i) of §3.1 for one class C_i: a
// |G| × |C_i| table whose (g, c) cell is blank when sample c does not
// express g, a black dot when no sample outside C_i expresses g, and
// otherwise a set of exclusion lists — one per outside sample h that also
// expresses g.
//
// Algorithm 1's pointer-sharing trick means the table needs only one list
// per (c, h) pair, and that list — h\c, or c\h when h ⊆ c — is a function of
// the two training rows. So a BST stores only its training rows — the
// column gene sets and the outside rows, shared with the training set — and
// the outside rows' per-gene transpose. derive computes the rest from them,
// BSTCE values every pair from counts against the rows (pairValue), and
// cells and clauses are built on demand.
type BST struct {
	// Class is the class index C_i this table was built for.
	Class int
	// ClassSamples[c] is the dataset sample index of table column c.
	ClassSamples []int
	// OutsideSamples[h] is the dataset sample index of outside sample h.
	OutsideSamples []int

	numGenes int

	// colGenes[c] is the gene set of column sample c (shared with dataset).
	colGenes []*bitset.Set
	// geneOutside[g] is the set of outside positions h expressing gene g
	// (universe = len(OutsideSamples)): outsideGenes transposed.
	geneOutside []*bitset.Set
	// outsideGenes[h] is the gene set of outside sample h (shared with
	// dataset). Pair values count against it, and BSTCE's column sweep
	// resolves whole words of genes per outside sample with it.
	outsideGenes []*bitset.Set

	// exclusiveGenes holds the black dots: the genes some column expresses
	// and no outside sample does. Derived.
	exclusiveGenes *bitset.Set
	// pairs[c*len(OutsideSamples)+h] is the shape of the (c, h) exclusion
	// list. Derived, never persisted: it saves every pair value a second
	// popcount.
	pairs []pairShape
	// cullOnce guards cullOrders: they are only needed when a query
	// evaluates with CullListsTo > 0, so they are built on the first such
	// query (concurrency-safe) instead of at construction or load —
	// default-path cold starts skip them entirely.
	cullOnce sync.Once
	// cullOrders holds, per column, the outside positions ordered by
	// ascending list length, for §8's list culling.
	cullOrders [][]int
	// pairExpr lazily caches each pair clause's Expr for the rule-mining
	// paths, which revisit the same pair clauses across many rules;
	// pairGenes is their scratch for one list's genes. Mining methods are
	// not safe for concurrent use because of this state; classification
	// never touches it and stays concurrency-safe.
	pairExpr  [][]rules.Expr
	pairGenes *bitset.Set

	// scratch pools evalScratch values sized for this table (see
	// scratch.go), keeping steady-state evaluation allocation-free while
	// staying safe for concurrent queries — parallel batch classification
	// effectively gives each worker its own scratch. The zero value is
	// ready to use.
	scratch sync.Pool
}

// pairShape is the size and polarity of one (c, h) exclusion list.
type pairShape struct {
	n   int32 // literals in the list
	neg bool  // the negated list h\c; false for the positive list c\h
}

// NewBST runs Algorithm 1 (Create-BST) for class ci over d. It requires at
// least one sample of the class. Construction is O((|S|-|C_i|)·|G|·|C_i|)
// time, as in §3.1.1; the table keeps O(|S|·|G| + |S|²) state.
func NewBST(d *dataset.Bool, ci int) (*BST, error) {
	if ci < 0 || ci >= d.NumClasses() {
		return nil, fmt.Errorf("core: class index %d outside [0,%d)", ci, d.NumClasses())
	}
	t := &BST{Class: ci, numGenes: d.NumGenes()}
	for i, cl := range d.Classes {
		if cl == ci {
			t.ClassSamples = append(t.ClassSamples, i)
			t.colGenes = append(t.colGenes, d.Rows[i])
		} else {
			t.OutsideSamples = append(t.OutsideSamples, i)
			t.outsideGenes = append(t.outsideGenes, d.Rows[i])
		}
	}
	if len(t.ClassSamples) == 0 {
		return nil, fmt.Errorf("core: class %d has no samples", ci)
	}
	t.geneOutside = bitset.Transpose(t.outsideGenes, t.numGenes)
	t.derive()

	met.bstBuilds.Inc()
	if met.bstCells != nil {
		// Non-blank cells: each column sample contributes one cell per
		// expressed gene. The exclusion-list accounting sums the derived
		// pair sizes, so it only runs when instrumented.
		cells := int64(0)
		for _, cg := range t.colGenes {
			cells += int64(cg.Count())
		}
		met.bstCells.Add(cells)
		met.pairClauses.Add(int64(len(t.pairs)))
		genes := int64(0)
		for _, p := range t.pairs {
			genes += int64(p.n)
		}
		met.exclGenes.Add(genes)
	}
	return t, nil
}

// derive computes everything the table holds besides its training rows: the
// black dots, and the shape of every shared (c, h) exclusion list
// (Algorithm 1 lines 13-18). The list is the negated h\c, of size
// |h| − |h∩c|, unless h ⊆ c; then it is the positive c\h, of size
// |c| − |h|, which is empty for identical samples (excluded by Theorem 2's
// hypothesis).
func (t *BST) derive() {
	t.exclusiveGenes = bitset.New(t.numGenes)
	for _, cg := range t.colGenes {
		t.exclusiveGenes.Or(cg)
	}
	nh := len(t.outsideGenes)
	sizes := make([]int, nh)
	for h, hg := range t.outsideGenes {
		t.exclusiveGenes.AndNot(hg)
		sizes[h] = hg.Count()
	}
	t.pairs = make([]pairShape, len(t.colGenes)*nh)
	for c, cg := range t.colGenes {
		cn, row := cg.Count(), t.pairs[c*nh:(c+1)*nh]
		for h, hg := range t.outsideGenes {
			if both := cg.IntersectionCount(hg); sizes[h] > both {
				row[h] = pairShape{n: int32(sizes[h] - both), neg: true}
			} else {
				row[h] = pairShape{n: int32(cn - sizes[h])}
			}
		}
	}
}

// NumGenes returns |G|.
func (t *BST) NumGenes() int { return t.numGenes }

// NumColumns returns |C_i|.
func (t *BST) NumColumns() int { return len(t.ClassSamples) }

// NumOutside returns |S| - |C_i|.
func (t *BST) NumOutside() int { return len(t.OutsideSamples) }

// ColumnGenes returns the gene set of table column c.
func (t *BST) ColumnGenes(c int) *bitset.Set { return t.colGenes[c] }

// CellKind describes the content of a BST cell.
type CellKind int

// Cell kinds, in the order a reader of Figure 1 encounters them.
const (
	CellBlank CellKind = iota // sample does not express the gene
	CellDot                   // black dot: gene expressed only inside the class
	CellLists                 // one exclusion list per outside expresser
)

// Cell returns the kind of cell (g, c) and, for CellLists cells, the pairs
// (outside position, clause) in outside order, built from the rows.
func (t *BST) Cell(g, c int) (CellKind, []CellClause) {
	if !t.colGenes[c].Contains(g) {
		return CellBlank, nil
	}
	if t.exclusiveGenes.Contains(g) {
		return CellDot, nil
	}
	var out []CellClause
	t.geneOutside[g].ForEach(func(h int) bool {
		out = append(out, CellClause{Outside: h, Clause: t.PairClause(c, h)})
		return true
	})
	return CellLists, out
}

// CellClause is one exclusion list of a cell, tagged with the outside sample
// position it excludes.
type CellClause struct {
	Outside int
	Clause  rules.Clause
}

// PairClause builds the shared exclusion list of column c and outside
// position h, regardless of any particular gene row: the negated list h\c,
// or, when h ⊆ c, the positive list c\h.
func (t *BST) PairClause(c, h int) rules.Clause {
	genes := bitset.New(t.numGenes)
	neg := t.pairListInto(genes, c, h)
	return rules.Clause{Genes: genes, Neg: neg}
}

// pairListInto writes the genes of the (c, h) exclusion list into dst and
// reports whether the list is negated.
func (t *BST) pairListInto(dst *bitset.Set, c, h int) (neg bool) {
	cg, hg := t.colGenes[c], t.outsideGenes[h]
	if t.pairs[c*len(t.OutsideSamples)+h].neg {
		hg.AndNotInto(dst, cg)
		return true
	}
	cg.AndNotInto(dst, hg)
	return false
}

// pairClauseExpr returns the cached expression form of cl, the (c, h) pair
// clause, converting it on the first request.
func (t *BST) pairClauseExpr(c, h int, cl rules.Clause) rules.Expr {
	if t.pairExpr == nil {
		t.pairExpr = make([][]rules.Expr, len(t.ClassSamples))
	}
	if t.pairExpr[c] == nil {
		t.pairExpr[c] = make([]rules.Expr, len(t.OutsideSamples))
	}
	if t.pairExpr[c][h] == nil {
		met.clauseExprMisses.Inc()
		t.pairExpr[c][h] = cl.Expr()
	} else {
		met.clauseExprHits.Inc()
	}
	return t.pairExpr[c][h]
}

// CellRule returns the atomic 100%-confident BAR of cell (g, c) (§3.2):
// "g expressed AND every exclusion-list clause" ⇒ C_i. It returns false for
// blank cells.
func (t *BST) CellRule(g, c int) rules.BAR {
	kind, cls := t.Cell(g, c)
	switch kind {
	case CellBlank:
		return rules.BAR{Antecedent: rules.Const(false), Class: t.Class}
	case CellDot:
		return rules.BAR{Antecedent: rules.Lit{Gene: g}, Class: t.Class}
	}
	ops := []rules.Expr{rules.Lit{Gene: g}}
	for _, cc := range cls {
		ops = append(ops, cc.Clause.Expr())
	}
	return rules.BAR{Antecedent: rules.NewAnd(ops...), Class: t.Class}
}

// RowSupport returns the columns whose (g, ·) cells are non-blank — i.e. the
// class samples expressing g — as a set over column positions. This is the
// support of the g-row BAR (§4.1).
func (t *BST) RowSupport(g int) *bitset.Set {
	s := bitset.New(len(t.ClassSamples))
	for c, cg := range t.colGenes {
		if cg.Contains(g) {
			s.Add(c)
		}
	}
	return s
}

// String renders the table in the style of Figure 1, using the provided
// sample and gene names (falling back to positional names when nil). Only
// gene rows with at least one non-blank cell are printed.
func (t *BST) String() string { return t.Render(nil, nil) }

// Render renders the table with explicit gene and sample names.
func (t *BST) Render(geneNames, sampleNames []string) string {
	name := func(names []string, i int, prefix string) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("%s%d", prefix, i+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "BST class %d (%d genes x %d samples)\n", t.Class, t.numGenes, len(t.ClassSamples))
	for g := 0; g < t.numGenes; g++ {
		nonblank := false
		row := fmt.Sprintf("%-6s", name(geneNames, g, "g"))
		for c := range t.ClassSamples {
			kind, cls := t.Cell(g, c)
			cell := ""
			switch kind {
			case CellDot:
				cell = "*"
				nonblank = true
			case CellLists:
				nonblank = true
				var parts []string
				for _, cc := range cls {
					var lits []string
					cc.Clause.Genes.ForEach(func(lg int) bool {
						ln := name(geneNames, lg, "g")
						if cc.Clause.Neg {
							ln = "-" + ln
						}
						lits = append(lits, ln)
						return true
					})
					parts = append(parts, fmt.Sprintf("(%s: %s)",
						name(sampleNames, t.OutsideSamples[cc.Outside], "s"), strings.Join(lits, ",")))
				}
				cell = strings.Join(parts, " ")
			}
			row += fmt.Sprintf(" | %-30s", cell)
		}
		if nonblank {
			b.WriteString(row)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
