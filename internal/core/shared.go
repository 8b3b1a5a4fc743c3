package core

import (
	"sync"

	"bstc/internal/bitset"
)

// sharedPairs lets a classifier's tables share one pair count per query.
// BSTCE values the (c, h) exclusion list from x = |q∩c∩h|, which is
// symmetric in c and h, and each cross-class sample pair sits in exactly
// two tables: c's, with h outside, and h's, with c outside. So
// Classifier.ValuesInto counts every such pair once per query (count) and
// each table reads its pairs' counts from the result (tableLinks) instead
// of counting them again.
//
// The counts are laid out class-major. rows holds every training row, table
// k's column c at rows[start[k]+c]. For each table k but the last, its
// columns are counted against the rows of every later table, one batched
// AND-popcount per column: column c's counts fill the next
// len(rows)−start[k+1] slots of pairCounts.x, block k starting where block
// k−1 ended.
type sharedPairs struct {
	numGenes int
	rows     []*bitset.Set
	start    []int
	nx       int
	links    []tableLinks
	pool     sync.Pool // *pairCounts
}

// tableLinks places one table's outside samples in a query's pairCounts:
// outside sample h is row row[h], and its count with column c sits at
// x[base[h] + c·stride[h]]. That is a run down the table's own block for a
// sample of a later table (stride: the block's row length), and a run
// along a row of the sample's table's block for an earlier one (stride 1).
type tableLinks struct {
	row    []int32
	base   []int
	stride []int
}

// pairCounts is one query's shared counts: |q∩row| for every training row,
// x for every cross-class pair, and q∩c's scratch set.
type pairCounts struct {
	qRow []int32
	x    []int32
	qc   *bitset.Set
}

// sharePairs derives the shared layout of Train's tables over numGenes
// genes. They come from one training set: every sample is a column of
// exactly one table and an outside sample of every other, and every table
// holds the same row for it, so each table can read counts taken against
// another table's rows.
func sharePairs(tables []*BST, numGenes int) *sharedPairs {
	type place struct{ table, col int }
	sp := &sharedPairs{numGenes: numGenes, start: make([]int, len(tables)+1)}
	for k, t := range tables {
		sp.start[k] = len(sp.rows)
		sp.rows = append(sp.rows, t.colGenes...)
	}
	n := len(sp.rows)
	sp.start[len(tables)] = n
	owner := make([]place, n)
	for k, t := range tables {
		for c, id := range t.ClassSamples {
			owner[id] = place{k, c}
		}
	}

	blocks := make([]int, len(tables))
	for k, t := range tables {
		blocks[k] = sp.nx
		sp.nx += len(t.ClassSamples) * (n - sp.start[k+1])
	}
	sp.links = make([]tableLinks, len(tables))
	for k, t := range tables {
		nh := len(t.OutsideSamples)
		l := tableLinks{row: make([]int32, nh), base: make([]int, nh), stride: make([]int, nh)}
		for h, id := range t.OutsideSamples {
			p := owner[id]
			g := sp.start[p.table] + p.col
			l.row[h] = int32(g)
			if j := p.table; j > k {
				l.base[h], l.stride[h] = blocks[k]+g-sp.start[k+1], n-sp.start[k+1]
			} else {
				l.base[h], l.stride[h] = blocks[j]+p.col*(n-sp.start[j+1])+sp.start[k]-sp.start[j+1], 1
			}
		}
		sp.links[k] = l
	}
	return sp
}

// count fills pc with q's counts: |q∩row| for every row with one batched
// AND-popcount, then x for every cross-class pair with one per column of
// every table but the last, against the rows of the later tables.
func (sp *sharedPairs) count(q *bitset.Set, pc *pairCounts) {
	if q.Len() != sp.numGenes {
		panic("core: query gene universe does not match classifier")
	}
	q.IntersectionCounts(pc.qRow, sp.rows)
	x := pc.x
	for k := 0; k+2 < len(sp.start); k++ {
		later := sp.rows[sp.start[k+1]:]
		for _, c := range sp.rows[sp.start[k]:sp.start[k+1]] {
			q.IntersectInto(pc.qc, c)
			pc.qc.IntersectionCounts(x, later)
			x = x[len(later):]
		}
	}
}

func (sp *sharedPairs) get() *pairCounts {
	if pc, ok := sp.pool.Get().(*pairCounts); ok {
		return pc
	}
	return &pairCounts{
		qRow: make([]int32, len(sp.rows)),
		x:    make([]int32, sp.nx),
		qc:   bitset.New(sp.numGenes),
	}
}

func (sp *sharedPairs) put(pc *pairCounts) { sp.pool.Put(pc) }

// outsideCounts copies |q∩h| for every outside sample h into dst.
func (l *tableLinks) outsideCounts(dst []int32, pc *pairCounts) {
	for h, g := range l.row {
		dst[h] = pc.qRow[g]
	}
}

// columnCounts copies column c's pair counts, one per outside sample, into
// dst.
func (l *tableLinks) columnCounts(dst []int32, pc *pairCounts, c int) {
	stride := l.stride[:len(l.base)]
	for h, b := range l.base {
		dst[h] = pc.x[b+c*stride[h]]
	}
}
