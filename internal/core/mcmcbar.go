package core

import (
	"sort"

	"bstc/internal/bitset"
	"bstc/internal/rules"
)

// MCBAR is a Maximally Complex 100% (Maximally) Confident Boolean
// Association Rule (§4.1): for a supportable class-sample subset, the BAR
// whose CAR portion conjoins every gene row rule with support ⊇ that subset.
// It is the upper bound of its interesting boolean rule group (§4.2).
type MCBAR struct {
	// Support holds the supporting class samples as column positions of the
	// BST the rule was mined from.
	Support *bitset.Set
	// SupportSamples holds the same support as dataset sample indices.
	SupportSamples []int
	// CARGenes is the rule's CAR portion: every gene expressed by all
	// supporting samples. Maximal complexity means no gene can be added
	// without shrinking Support.
	CARGenes *bitset.Set
	// Excluded holds the outside positions the rule's exclusion clauses must
	// actively exclude — the outside samples expressing all of CARGenes.
	// By Theorem 2, |Excluded| relates the rule to a CAR of confidence
	// |Support| / (|Support| + |Excluded|).
	Excluded *bitset.Set
	// Rule is the full boolean rule.
	Rule rules.BAR
}

// MineOptions tunes Algorithm 3.
type MineOptions struct {
	// TieBreakFewerExcluded enables §4.1's secondary ordering: among
	// same-sized supports, visit those whose rules exclude fewer outside
	// samples first (equivalently, whose CAR portions are more confident).
	TieBreakFewerExcluded bool
}

// supEntry is one candidate support set in the C_i_SUP work list.
type supEntry struct {
	set  *bitset.Set
	key  string
	size int
	excl int // cached |Excluded|; -1 when not yet computed
}

// MineMCMCBAR implements Algorithm 3: it returns a (MC)²BAR for each of the
// top-k supportable C_i sample subsets, in decreasing support order. Fewer
// than k rules are returned when the support lattice has fewer elements.
func (t *BST) MineMCMCBAR(k int, opts MineOptions) []MCBAR {
	return t.mine(k, opts, -1)
}

// MineMCMCBARPerSample implements Algorithm 4: for every class sample c it
// mines the top-k (MC)²BARs whose supports contain c, merges the per-sample
// results, removes duplicates, and returns them sorted by decreasing
// support. This guarantees every training sample is covered by at least one
// mined rule (when k ≥ 1).
func (t *BST) MineMCMCBARPerSample(k int, opts MineOptions) []MCBAR {
	seen := map[string]bool{}
	var all []MCBAR
	var keys []string
	var counts []int
	var buf []byte
	for c := range t.ClassSamples {
		for _, r := range t.mine(k, opts, c) {
			buf = r.Support.AppendKey(buf[:0])
			if !seen[string(buf)] {
				key := string(buf)
				seen[key] = true
				all = append(all, r)
				keys = append(keys, key)
				counts = append(counts, r.Support.Count())
			}
		}
	}
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if counts[i] != counts[j] {
			return counts[i] > counts[j]
		}
		return keys[i] < keys[j]
	})
	sorted := make([]MCBAR, len(all))
	for n, i := range order {
		sorted[n] = all[i]
	}
	return sorted
}

// mine runs the Algorithm 3 loop. When mustContain ≥ 0 only supports
// containing that column position are considered (the Algorithm 4
// restriction); the candidate lattice stays complete because every closed
// set containing c is an intersection of gene-row supports containing c.
func (t *BST) mine(k int, opts MineOptions, mustContain int) []MCBAR {
	if k <= 0 {
		return nil
	}
	// Initial C_i_SUP: the distinct non-empty gene row supports
	// (Algorithm 3 lines 3-6).
	seen := map[string]bool{}
	var cSup []supEntry
	var keyBuf []byte
	push := func(s *bitset.Set) {
		if s.IsEmpty() || (mustContain >= 0 && !s.Contains(mustContain)) {
			return
		}
		// AppendKey into the shared buffer so duplicate candidates — the
		// common case deep in the lattice — are rejected without allocating.
		keyBuf = s.AppendKey(keyBuf[:0])
		if seen[string(keyBuf)] {
			return
		}
		key := string(keyBuf)
		seen[key] = true
		cSup = append(cSup, supEntry{set: s, key: key, size: s.Count(), excl: -1})
	}
	for g := 0; g < t.numGenes; g++ {
		push(t.RowSupport(g))
	}

	var rules_ []MCBAR
	var ruleSup []*bitset.Set
	for len(rules_) < k && len(cSup) > 0 {
		t.sortCandidates(cSup, opts)
		// B ← largest remaining support size; B_SUP ← all candidates of
		// that size (lines 8-14).
		b := cSup[0].size
		var bSup []*bitset.Set
		rest := cSup[:0]
		for _, e := range cSup {
			if e.size == b {
				bSup = append(bSup, e.set)
				rules_ = append(rules_, t.buildMCBAR(e.set))
				ruleSup = append(ruleSup, e.set)
			} else {
				rest = append(rest, e)
			}
		}
		cSup = rest
		// NEWSUPP ← pairwise intersections with every rule support found so
		// far, merged into C_i_SUP without duplicates (lines 15-20).
		for _, s1 := range bSup {
			for _, s2 := range ruleSup {
				push(bitset.Intersect(s1, s2))
			}
		}
	}
	if len(rules_) > k {
		rules_ = rules_[:k]
	}
	return rules_
}

func (t *BST) sortCandidates(cSup []supEntry, opts MineOptions) {
	if opts.TieBreakFewerExcluded {
		for i := range cSup {
			if cSup[i].excl < 0 {
				cSup[i].excl = t.excludedOutside(t.carGenes(cSup[i].set)).Count()
			}
		}
	}
	sort.SliceStable(cSup, func(i, j int) bool {
		if cSup[i].size != cSup[j].size {
			return cSup[i].size > cSup[j].size
		}
		if opts.TieBreakFewerExcluded && cSup[i].excl != cSup[j].excl {
			return cSup[i].excl < cSup[j].excl
		}
		return cSup[i].key < cSup[j].key
	})
}

// carGenes returns the maximal CAR portion for support set s: the genes
// expressed by every supporting sample (the AND of all gene-row rules with
// support ⊇ s, per Algorithm 3 line 10).
func (t *BST) carGenes(s *bitset.Set) *bitset.Set {
	genes := bitset.New(t.numGenes)
	genes.Fill()
	s.ForEach(func(c int) bool {
		genes.And(t.colGenes[c])
		return true
	})
	return genes
}

// excludedOutside returns the outside positions expressing every CAR gene —
// the samples the rule's exclusion clauses must actively exclude.
func (t *BST) excludedOutside(carGenes *bitset.Set) *bitset.Set {
	h := bitset.New(len(t.OutsideSamples))
	h.Fill()
	carGenes.ForEach(func(g int) bool {
		h.And(t.geneOutside[g])
		return !h.IsEmpty()
	})
	return h
}

// buildMCBAR materializes the (MC)²BAR for a support set: CAR conjunction
// ANDed with a disjunction over supporting samples of the conjunction of
// their exclusion clauses for the actively excluded outside samples
// (§3.2.1's simplified product form).
func (t *BST) buildMCBAR(s *bitset.Set) MCBAR {
	carGenes := t.carGenes(s)
	excluded := t.excludedOutside(carGenes)

	car := make([]rules.Expr, 0, carGenes.Count())
	carGenes.ForEach(func(g int) bool {
		car = append(car, rules.Lit{Gene: g})
		return true
	})
	ante := rules.NewAnd(car...)
	if !excluded.IsEmpty() {
		// Many supporting columns share identical exclusion clause sets, and
		// a column can hold the same clause for several outside samples.
		// Dedupe both levels with cheap clause keys and assemble the
		// And/Or nodes directly: the deduping constructors would re-key
		// whole subtrees at every level, which dominates mining time on
		// wide tables. Each clause key is built from the list's genes,
		// derived into the table's mining scratch set, so no clause is
		// allocated per (c, h).
		var disj rules.Or
		seenCols := map[string]bool{}
		var clauseBuf []byte
		if t.pairGenes == nil {
			t.pairGenes = bitset.New(t.numGenes)
		}
		s.ForEach(func(c int) bool {
			var colKey []byte
			var conj rules.And
			seenClauses := map[string]bool{}
			excluded.ForEach(func(h int) bool {
				neg := t.pairListInto(t.pairGenes, c, h)
				clauseBuf = t.pairGenes.AppendKey(clauseBuf[:0])
				if neg {
					clauseBuf = append(clauseBuf, '-')
				}
				// The byte-slice map lookup compiles to an alloc-free probe,
				// so repeated clauses cost nothing.
				if !seenClauses[string(clauseBuf)] {
					seenClauses[string(clauseBuf)] = true
					colKey = append(colKey, clauseBuf...)
					conj = append(conj, t.pairClauseExpr(c, h, rules.Clause{Genes: t.pairGenes, Neg: neg}))
				}
				return true
			})
			if k := string(colKey); !seenCols[k] {
				seenCols[k] = true
				if len(conj) == 1 {
					disj = append(disj, conj[0])
				} else {
					disj = append(disj, conj)
				}
			}
			return true
		})
		var exclPart rules.Expr = disj
		if len(disj) == 1 {
			exclPart = disj[0]
		}
		ante = rules.NewAnd(ante, exclPart)
	}

	samples := make([]int, 0, s.Count())
	s.ForEach(func(c int) bool {
		samples = append(samples, t.ClassSamples[c])
		return true
	})
	return MCBAR{
		Support:        s,
		SupportSamples: samples,
		CARGenes:       carGenes,
		Excluded:       excluded,
		Rule:           rules.BAR{Antecedent: ante, Class: t.Class},
	}
}

// StripExclusions applies Theorem 2's ⇐ direction: it returns the pure CAR
// obtained by removing every exclusion clause from the rule. Its confidence
// over the training data is |Support| / (|Support| + |Excluded|).
func (m MCBAR) StripExclusions() rules.CAR {
	return rules.CAR{Genes: m.CARGenes, Class: m.Rule.Class}
}
