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
// Algorithm 1's pointer-sharing trick means the table stores only one list
// per (c, h) pair; cells reference the pair lists of the outside samples
// expressing their gene. We keep exactly that representation: pairList[c][h]
// plus the per-gene outside-expresser index, and derive cells on demand.
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
	// exclusive[g] reports the black dot condition: g is expressed by some
	// class sample and by no outside sample.
	exclusive []bool
	// geneOutside[g] is the set of outside positions h expressing gene g
	// (universe = len(OutsideSamples)).
	geneOutside []*bitset.Set
	// outsideGenes[h] is geneOutside transposed: the genes outside sample h
	// expresses. BSTCE's column sweep resolves whole words of genes per
	// outside sample with it.
	outsideGenes []*bitset.Set
	// exclusiveGenes is exclusive as a gene set: the black dots the column
	// sweep masks out before resolving.
	exclusiveGenes *bitset.Set
	// pairList[c][h] is the shared exclusion list for column c and outside
	// sample h: the paper's (h: -g_l1 … -g_lm) with genes h\c, or, when
	// h ⊆ c, the positive list (h: g_l1 … g_lm) with genes c\h.
	pairList [][]rules.Clause
	// cullOnce guards the lazy culling state below: it is only needed when
	// a query evaluates with CullListsTo > 0, so it is built on the first
	// such query (concurrency-safe) instead of at construction or load —
	// default-path cold starts skip it entirely.
	cullOnce sync.Once
	// cullOrders holds, per column, the outside positions ordered by
	// ascending list length, for §8's list culling.
	cullOrders [][]int
	// outsideIdx[g] is geneOutside[g]'s rank/select directory. Its O(1)
	// Count replaces the per-cell popcount scan in the BSTCE culling check;
	// Rank/Select stay available for covering diagnostics. Built once per
	// table, never after a mutation.
	outsideIdx []*bitset.Index
	// pairSize[c][h] caches |pairList[c][h].Genes|, so each pair-value cache
	// miss pays one intersection count instead of two full word scans (see
	// rules.Clause.SatisfactionFractionSized).
	pairSize [][]int32
	// pairExpr lazily caches pairList[c][h].Expr() for the rule-mining
	// paths, which revisit the same pair clauses across many rules. Mining
	// methods are not safe for concurrent use because of this cache;
	// classification never touches it and stays concurrency-safe.
	pairExpr [][]rules.Expr

	// scratch pools evalScratch values sized for this table (see
	// scratch.go), keeping steady-state evaluation allocation-free while
	// staying safe for concurrent queries — parallel batch classification
	// effectively gives each worker its own scratch. The zero value is
	// ready to use, so loaded classifiers need no extra wiring.
	scratch sync.Pool
}

// NewBST runs Algorithm 1 (Create-BST) for class ci over d. It requires at
// least one sample of the class. Construction is O((|S|-|C_i|)·|G|·|C_i|)
// time and space, as in §3.1.1.
func NewBST(d *dataset.Bool, ci int) (*BST, error) {
	if ci < 0 || ci >= d.NumClasses() {
		return nil, fmt.Errorf("core: class index %d outside [0,%d)", ci, d.NumClasses())
	}
	t := &BST{Class: ci, numGenes: d.NumGenes()}
	for i, cl := range d.Classes {
		if cl == ci {
			t.ClassSamples = append(t.ClassSamples, i)
		} else {
			t.OutsideSamples = append(t.OutsideSamples, i)
		}
	}
	if len(t.ClassSamples) == 0 {
		return nil, fmt.Errorf("core: class %d has no samples", ci)
	}

	t.colGenes = make([]*bitset.Set, len(t.ClassSamples))
	for c, si := range t.ClassSamples {
		t.colGenes[c] = d.Rows[si]
	}

	// Genes expressed anywhere outside the class, and the per-gene outside
	// expresser index.
	t.geneOutside = make([]*bitset.Set, t.numGenes)
	for g := range t.geneOutside {
		t.geneOutside[g] = bitset.New(len(t.OutsideSamples))
	}
	t.outsideGenes = make([]*bitset.Set, len(t.OutsideSamples))
	for h, si := range t.OutsideSamples {
		t.outsideGenes[h] = d.Rows[si]
		d.Rows[si].ForEach(func(g int) bool {
			t.geneOutside[g].Add(h)
			return true
		})
	}
	t.exclusive = make([]bool, t.numGenes)
	expressedInClass := bitset.New(t.numGenes)
	for _, cg := range t.colGenes {
		expressedInClass.Or(cg)
	}
	for g := 0; g < t.numGenes; g++ {
		t.exclusive[g] = expressedInClass.Contains(g) && t.geneOutside[g].IsEmpty()
	}
	t.exclusiveGenes = geneSet(t.exclusive)

	// One shared exclusion list per (c, h) pair (Algorithm 1 lines 13-18).
	t.pairList = make([][]rules.Clause, len(t.ClassSamples))
	for c := range t.ClassSamples {
		t.pairList[c] = make([]rules.Clause, len(t.OutsideSamples))
		cg := t.colGenes[c]
		for h, si := range t.OutsideSamples {
			hg := d.Rows[si]
			l := bitset.Difference(hg, cg) // genes in h but not c
			if !l.IsEmpty() {
				t.pairList[c][h] = rules.Clause{Genes: l, Neg: true}
				continue
			}
			// h ⊆ c: fall back to the positive list c \ h. If that is also
			// empty, the two samples are identical (excluded by Theorem 2's
			// hypothesis); the clause stays empty and is unsatisfiable.
			t.pairList[c][h] = rules.Clause{Genes: bitset.Difference(cg, hg)}
		}
	}
	t.buildDerived()

	met.bstBuilds.Inc()
	if met.bstCells != nil {
		// Non-blank cells: each column sample contributes one cell per
		// expressed gene. The exclusion-list size accounting walks every
		// shared pair list once, so it only runs when instrumented.
		cells := int64(0)
		for _, cg := range t.colGenes {
			cells += int64(cg.Count())
		}
		met.bstCells.Add(cells)
		met.pairClauses.Add(int64(len(t.ClassSamples)) * int64(len(t.OutsideSamples)))
		genes := int64(0)
		for c := range t.pairList {
			for h := range t.pairList[c] {
				genes += int64(t.pairList[c][h].Genes.Count())
			}
		}
		met.exclGenes.Add(genes)
	}
	return t, nil
}

// geneSet returns the genes flagged in mask as a set over len(mask) genes.
func geneSet(mask []bool) *bitset.Set {
	s := bitset.New(len(mask))
	for g, in := range mask {
		if in {
			s.Add(g)
		}
	}
	return s
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
// (outside position, clause) in outside order.
func (t *BST) Cell(g, c int) (CellKind, []CellClause) {
	if !t.colGenes[c].Contains(g) {
		return CellBlank, nil
	}
	if t.exclusive[g] {
		return CellDot, nil
	}
	var out []CellClause
	t.geneOutside[g].ForEach(func(h int) bool {
		out = append(out, CellClause{Outside: h, Clause: t.pairList[c][h]})
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

// PairClause returns the shared exclusion list of column c and outside
// position h, regardless of any particular gene row.
func (t *BST) PairClause(c, h int) rules.Clause { return t.pairList[c][h] }

// pairClauseExpr returns the cached expression form of a pair clause.
func (t *BST) pairClauseExpr(c, h int) rules.Expr {
	if t.pairExpr == nil {
		t.pairExpr = make([][]rules.Expr, len(t.ClassSamples))
	}
	if t.pairExpr[c] == nil {
		t.pairExpr[c] = make([]rules.Expr, len(t.OutsideSamples))
	}
	if t.pairExpr[c][h] == nil {
		met.clauseExprMisses.Inc()
		t.pairExpr[c][h] = t.pairList[c][h].Expr()
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
