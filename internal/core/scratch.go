package core

import (
	"math"

	"bstc/internal/bitset"
)

// evalScratch holds every piece of per-query state BSTCE needs, so that
// steady-state evaluation allocates nothing. The pair-value cache pairV is
// backed by one flat slab (one |outside|-sized stripe per column),
// materialized lazily per column exactly like the old per-call allocation;
// touched remembers which stripes were handed out so reset stays
// proportional to the work actually done, not the table size.
//
// cells, unresolved and ranks are the column sweep's state (see
// sweepColumn): per-gene cell values, the genes not yet resolved, and the
// column's outside samples keyed by pair value. Each sweep overwrites the
// entries it reads, so reset leaves them alone.
type evalScratch struct {
	pairV      [][]float64
	slab       []float64
	touched    []int
	colVals    []float64
	qAndCol    *bitset.Set
	cells      []float64
	unresolved *bitset.Set
	ranks      []pairRank
}

// reset prepares the scratch for a fresh query.
func (s *evalScratch) reset() {
	for _, c := range s.touched {
		s.pairV[c] = nil
	}
	s.touched = s.touched[:0]
	for c := range s.colVals {
		s.colVals[c] = math.NaN()
	}
}

// column returns the pair-value cache stripe of column c, materializing it
// NaN-filled on first use.
func (s *evalScratch) column(c, outs int) []float64 {
	pv := s.pairV[c]
	if pv == nil {
		pv = s.slab[c*outs : (c+1)*outs]
		for h := range pv {
			pv[h] = math.NaN()
		}
		s.pairV[c] = pv
		s.touched = append(s.touched, c)
	}
	return pv
}

// getScratch takes a scratch sized for t from its pool, building one on
// first use. The pool is never serialized, so classifiers loaded from disk
// warm up lazily exactly like freshly trained ones.
func (t *BST) getScratch() *evalScratch {
	if s, ok := t.scratch.Get().(*evalScratch); ok {
		return s
	}
	cols, outs := len(t.ClassSamples), len(t.OutsideSamples)
	return &evalScratch{
		pairV:      make([][]float64, cols),
		slab:       make([]float64, cols*outs),
		touched:    make([]int, 0, cols),
		colVals:    make([]float64, cols),
		qAndCol:    bitset.New(t.numGenes),
		cells:      make([]float64, t.numGenes),
		unresolved: bitset.New(t.numGenes),
		ranks:      make([]pairRank, outs),
	}
}

func (t *BST) putScratch(s *evalScratch) { t.scratch.Put(s) }
