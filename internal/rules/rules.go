// Package rules implements the association-rule algebra of the BSTC paper's
// §2: conjunctive association rules (CARs), generalized boolean association
// rules (BARs), and their support/confidence measures.
//
// A BAR antecedent is an arbitrary boolean expression over gene-expression
// literals; the paper restricts attention to the BST-generable subclass
// whose antecedents are a CAR conjunction ANDed with a disjunction of
// exclusion-list clause conjunctions. The Expr AST here is general enough
// for both, and Clause models the paper's exclusion lists directly.
package rules

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// Expr is a boolean expression over gene-expression literals. Eval treats
// row as the set of expressed genes of a sample (§2.1: s[g] ∈ {0,1} and
// s[-g] = ¬s[g]).
type Expr interface {
	Eval(row *bitset.Set) bool
	render(names []string) string
}

// Const is the constant true/false expression.
type Const bool

// Eval implements Expr.
func (c Const) Eval(*bitset.Set) bool { return bool(c) }

func (c Const) render([]string) string {
	if c {
		return "true"
	}
	return "false"
}

// Lit is a single literal: gene expressed (Neg=false) or not expressed
// (Neg=true).
type Lit struct {
	Gene int
	Neg  bool
}

// Eval implements Expr.
func (l Lit) Eval(row *bitset.Set) bool { return row.Contains(l.Gene) != l.Neg }

func (l Lit) render(names []string) string {
	n := geneName(names, l.Gene)
	if l.Neg {
		return "-" + n
	}
	return n
}

// And is the conjunction of its operands. An empty And is true.
type And []Expr

// Eval implements Expr.
func (a And) Eval(row *bitset.Set) bool {
	for _, e := range a {
		if !e.Eval(row) {
			return false
		}
	}
	return true
}

func (a And) render(names []string) string { return renderNary(a, " AND ", names) }

// Or is the disjunction of its operands. An empty Or is false.
type Or []Expr

// Eval implements Expr.
func (o Or) Eval(row *bitset.Set) bool {
	for _, e := range o {
		if e.Eval(row) {
			return true
		}
	}
	return false
}

func (o Or) render(names []string) string { return renderNary(o, " OR ", names) }

func renderNary[T ~[]Expr](ops T, sep string, names []string) string {
	switch len(ops) {
	case 0:
		if sep == " AND " {
			return "true"
		}
		return "false"
	case 1:
		return ops[0].render(names)
	}
	parts := make([]string, len(ops))
	for i, e := range ops {
		parts[i] = e.render(names)
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func geneName(names []string, g int) string {
	if g >= 0 && g < len(names) {
		return names[g]
	}
	return fmt.Sprintf("g%d", g+1)
}

// Render pretty-prints an expression using the dataset's gene names. A nil
// or empty names slice falls back to positional g1, g2, ... naming.
func Render(e Expr, names []string) string { return e.render(names) }

// keyOf computes a cheap structural identity key for dedup during
// construction; unlike render it avoids fmt and gene-name lookups.
func keyOf(e Expr) string {
	var b []byte
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case Const:
			if v {
				b = append(b, 'T')
			} else {
				b = append(b, 'F')
			}
		case Lit:
			if v.Neg {
				b = append(b, '-')
			}
			b = strconv.AppendInt(b, int64(v.Gene), 36)
			b = append(b, ',')
		case And:
			b = append(b, '&', '(')
			for _, c := range v {
				walk(c)
			}
			b = append(b, ')')
		case Or:
			b = append(b, '|', '(')
			for _, c := range v {
				walk(c)
			}
			b = append(b, ')')
		}
	}
	walk(e)
	return string(b)
}

// NewAnd builds a conjunction, folding constants, flattening nested Ands
// and dropping syntactically duplicate operands (A AND A = A). It returns
// Const(true) for an empty product and the sole operand for a singleton.
func NewAnd(ops ...Expr) Expr {
	var out And
	seen := map[string]bool{}
	add := func(e Expr) {
		key := keyOf(e)
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	for _, e := range ops {
		switch v := e.(type) {
		case Const:
			if !bool(v) {
				return Const(false)
			}
		case And:
			for _, c := range v {
				add(c)
			}
		default:
			add(e)
		}
	}
	switch len(out) {
	case 0:
		return Const(true)
	case 1:
		return out[0]
	}
	return out
}

// NewOr builds a disjunction, folding constants, flattening nested Ors and
// dropping syntactically duplicate operands (A OR A = A).
func NewOr(ops ...Expr) Expr {
	var out Or
	seen := map[string]bool{}
	add := func(e Expr) {
		key := keyOf(e)
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	for _, e := range ops {
		switch v := e.(type) {
		case Const:
			if bool(v) {
				return Const(true)
			}
		case Or:
			for _, c := range v {
				add(c)
			}
		default:
			add(e)
		}
	}
	switch len(out) {
	case 0:
		return Const(false)
	case 1:
		return out[0]
	}
	return out
}

// Clause is one of the paper's exclusion lists, viewed as a disjunction of
// same-sign literals over Genes: with Neg=true it reads "either g_{l1} or …
// or g_{lm} not expressed"; with Neg=false "g_{l1} or … expressed".
type Clause struct {
	Genes *bitset.Set // genes mentioned in the list; universe = |G|
	Neg   bool
}

// Satisfied reports whether a sample row satisfies the clause, i.e. whether
// at least one literal holds.
func (c Clause) Satisfied(row *bitset.Set) bool {
	if c.Genes.IsEmpty() {
		return false
	}
	if c.Neg {
		// At least one listed gene is NOT expressed by row.
		return c.Genes.IntersectionCount(row) < c.Genes.Count()
	}
	return c.Genes.Intersects(row)
}

// SatisfactionFraction is BSTCE's V_e (Algorithm 5 line 4, corrected per the
// §5.4 worked example): the fraction of the clause's literals satisfied by
// row. A literal g is satisfied iff row expresses g; a literal -g iff it
// does not. Empty clauses — which arise only from duplicate samples across
// classes, excluded by Theorem 2's hypothesis — get 0: they can never
// distinguish the pair.
func (c Clause) SatisfactionFraction(row *bitset.Set) float64 {
	n := c.Genes.Count()
	if n == 0 {
		return 0
	}
	in := c.Genes.IntersectionCount(row)
	if c.Neg {
		return float64(n-in) / float64(n)
	}
	return float64(in) / float64(n)
}

// Expr converts the clause into the equivalent Or of literals. The
// disjunction is assembled directly: bitset iteration cannot produce
// duplicate or constant operands, so the deduping constructor would only
// add cost.
func (c Clause) Expr() Expr {
	ops := make(Or, 0, c.Genes.Count())
	c.Genes.ForEach(func(g int) bool {
		ops = append(ops, Lit{Gene: g, Neg: c.Neg})
		return true
	})
	switch len(ops) {
	case 0:
		return Const(false)
	case 1:
		return ops[0]
	}
	return ops
}

// String renders the clause like the paper's figures: "(s?: -g4, -g6)"
// without the sample tag, e.g. "(-g4 OR -g6)".
func (c Clause) String() string { return Render(c.Expr(), nil) }

// CAR is a conjunctive association rule g_{j1}, …, g_{jr} ⇒ class (§2).
type CAR struct {
	Genes *bitset.Set // antecedent genes; universe = |G|
	Class int
}

// Expr converts the CAR antecedent into the equivalent conjunction.
func (c CAR) Expr() Expr {
	var ops []Expr
	c.Genes.ForEach(func(g int) bool {
		ops = append(ops, Lit{Gene: g})
		return true
	})
	return NewAnd(ops...)
}

// String renders like "g1, g3 => class 0".
func (c CAR) String() string {
	var names []string
	c.Genes.ForEach(func(g int) bool {
		names = append(names, fmt.Sprintf("g%d", g+1))
		return true
	})
	return fmt.Sprintf("%s => class %d", strings.Join(names, ", "), c.Class)
}

// BAR is a boolean association rule B ⇒ C_i (§2.1).
type BAR struct {
	Antecedent Expr
	Class      int
}

// Support returns the support set of the rule over d: the samples of the
// rule's class whose rows evaluate the antecedent to true (§2.1).
func (b BAR) Support(d *dataset.Bool) *bitset.Set {
	s := bitset.New(d.NumSamples())
	for i, row := range d.Rows {
		if d.Classes[i] == b.Class && b.Antecedent.Eval(row) {
			s.Add(i)
		}
	}
	return s
}

// Matches returns every sample (any class) satisfying the antecedent.
func (b BAR) Matches(d *dataset.Bool) *bitset.Set {
	s := bitset.New(d.NumSamples())
	for i, row := range d.Rows {
		if b.Antecedent.Eval(row) {
			s.Add(i)
		}
	}
	return s
}

// Confidence returns |supp| / |matches| (§2.1). A rule matched by no sample
// has confidence 0 by convention.
func (b BAR) Confidence(d *dataset.Bool) float64 {
	supp, all := 0, 0
	for i, row := range d.Rows {
		if b.Antecedent.Eval(row) {
			all++
			if d.Classes[i] == b.Class {
				supp++
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(supp) / float64(all)
}

// CARSupportConfidence computes a CAR's support count and confidence over d
// using subset tests, matching §2's original definitions.
func CARSupportConfidence(d *dataset.Bool, c CAR) (support int, confidence float64) {
	all := 0
	for i, row := range d.Rows {
		if c.Genes.SubsetOf(row) {
			all++
			if d.Classes[i] == c.Class {
				support++
			}
		}
	}
	if all == 0 {
		return 0, 0
	}
	return support, float64(support) / float64(all)
}

// Equivalent reports whether two expressions agree on every one of the 2^n
// possible gene assignments. Intended for tests; n must be small (≤ 20).
func Equivalent(a, b Expr, numGenes int) bool {
	if numGenes > 20 {
		panic("rules: Equivalent limited to 20 genes")
	}
	row := bitset.New(numGenes)
	for mask := 0; mask < 1<<numGenes; mask++ {
		row.Clear()
		for g := 0; g < numGenes; g++ {
			if mask&(1<<g) != 0 {
				row.Add(g)
			}
		}
		if a.Eval(row) != b.Eval(row) {
			return false
		}
	}
	return true
}

// GenesOf collects the distinct genes mentioned anywhere in e, ascending.
func GenesOf(e Expr) []int {
	set := map[int]bool{}
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case Lit:
			set[v.Gene] = true
		case And:
			for _, c := range v {
				walk(c)
			}
		case Or:
			for _, c := range v {
				walk(c)
			}
		}
	}
	walk(e)
	out := make([]int, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}
