package core

import "bstc/internal/obs"

// met holds this package's instrumentation handles. All fields are nil by
// default (every obs method is a nil-safe no-op), so uninstrumented runs
// pay one nil check per event. SetMetrics installs live counters; it must
// be called before training/classification starts, not concurrently with
// it.
var met struct {
	// BST construction (Algorithm 1).
	bstBuilds   *obs.Counter // core.bst.builds — tables constructed
	bstCells    *obs.Counter // core.bst.cells — non-blank cells across built tables
	pairClauses *obs.Counter // core.bst.pair_clauses — shared (c,h) exclusion lists materialized
	exclGenes   *obs.Counter // core.bst.excl_genes — total genes across exclusion lists

	// BSTCE evaluation (Algorithm 5).
	evals            *obs.Counter // core.bstce.evals — table evaluations
	queries          *obs.Counter // core.classify.queries — samples classified
	clauseExprHits   *obs.Counter // core.clause_expr_cache.hits — mining-path Expr cache
	clauseExprMisses *obs.Counter // core.clause_expr_cache.misses
}

// SetMetrics binds this package's counters to r (nil restores the no-op
// default). Typically called via eval.SetMetrics, which wires the whole
// pipeline at once.
func SetMetrics(r *obs.Registry) {
	met.bstBuilds = r.Counter("core.bst.builds")
	met.bstCells = r.Counter("core.bst.cells")
	met.pairClauses = r.Counter("core.bst.pair_clauses")
	met.exclGenes = r.Counter("core.bst.excl_genes")
	met.evals = r.Counter("core.bstce.evals")
	met.queries = r.Counter("core.classify.queries")
	met.clauseExprHits = r.Counter("core.clause_expr_cache.hits")
	met.clauseExprMisses = r.Counter("core.clause_expr_cache.misses")
}
