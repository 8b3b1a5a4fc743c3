package core

import (
	"math"
	"math/bits"

	"bstc/internal/bitset"
)

// evalScratch holds every piece of per-query state BSTCE needs, so that
// steady-state evaluation allocates nothing. The pair-value cache pairV is
// backed by one flat slab (one |outside|-sized stripe per column),
// materialized lazily per column exactly like the old per-call allocation;
// touched remembers which stripes were handed out so startQuery stays
// proportional to the work actually done, not the table size.
//
// qOut, qAndCol and qc are the counts every pair value reads (see
// pairFraction): |q∩h| per outside sample h, set once per query by
// startQuery (or from the classifier's shared counts), and the current
// column's q∩c and |q∩c|, set by startColumn.
//
// x, cells, unresolved, heads, occupied, links and bucket are the column
// sweep's state (see sweepColumn): the column's pair counts |q∩c∩h| per
// outside sample, which the table counts itself or copies from the
// classifier's shared counts (pairCounts), per-gene cell values, the genes
// not yet resolved, the first sample of each value bucket and a bit per
// occupied bucket, each sample's value and successor in its bucket, and
// the bucket being sorted. There are four buckets per outside sample,
// rounded up to a power of two (see sweepBuckets). Each column overwrites
// the entries it reads, so startQuery leaves them alone.
type evalScratch struct {
	pairV      [][]float64
	slab       []float64
	touched    []int
	colVals    []float64
	qOut       []int32
	qAndCol    *bitset.Set
	qc         int
	x          []int32
	cells      []float64
	unresolved *bitset.Set
	heads      []int32
	occupied   []uint64
	links      []pairRank
	bucket     []pairRank
}

// startQuery prepares s for a fresh query q: it clears the pair-value
// cache and the column means, and counts q against every outside row.
func (t *BST) startQuery(q *bitset.Set, s *evalScratch) {
	t.resetQuery(s)
	q.IntersectionCounts(s.qOut, t.outsideGenes)
}

// resetQuery clears the pair-value cache and the column means.
func (t *BST) resetQuery(s *evalScratch) {
	for _, c := range s.touched {
		s.pairV[c] = nil
	}
	s.touched = s.touched[:0]
	for c := range s.colVals {
		s.colVals[c] = math.NaN()
	}
}

// startColumn makes column c current in s: s.qAndCol = q∩c and s.qc its
// size, which it returns.
func (t *BST) startColumn(q *bitset.Set, s *evalScratch, c int) int {
	q.IntersectInto(s.qAndCol, t.colGenes[c])
	s.qc = s.qAndCol.Count()
	return s.qc
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
		qOut:       make([]int32, outs),
		qAndCol:    bitset.New(t.numGenes),
		x:          make([]int32, outs),
		cells:      make([]float64, t.numGenes),
		unresolved: bitset.New(t.numGenes),
		heads:      make([]int32, sweepBuckets(outs)),
		occupied:   make([]uint64, (sweepBuckets(outs)+63)/64),
		links:      make([]pairRank, outs),
		bucket:     make([]pairRank, 0, outs),
	}
}

// sweepBuckets is the number of value buckets a column sweep over outs
// outside samples files them under: 4·outs rounded up to a power of two.
// Pair values crowd together near where a sweep stops: with one bucket per
// sample, a column of the OC paper profile sorts 2.2 buckets holding 28.6
// samples to visit 23, and four times as many buckets keep those sorts
// short.
func sweepBuckets(outs int) int {
	return 4 << bits.Len(uint(max(outs, 1)-1))
}

func (t *BST) putScratch(s *evalScratch) { t.scratch.Put(s) }
