// Package discretize implements the entropy-minimized partition the BSTC
// paper uses to turn continuous microarray matrices into the boolean
// relational representation of §2 (Fayyad & Irani's recursive MDL-stopped
// binary splitting, the method behind R dprep's disc.mentr, the paper's
// footnote 2).
//
// A gene with k accepted cut points produces k+1 intervals; every
// (gene, interval) pair becomes one boolean item ("gene expressed in its
// associated expression interval", §1). Genes with no accepted cut carry no
// class information under the MDL criterion and are dropped — the paper's
// "Genes After Discretization" column in Table 3 counts the genes that
// survive.
//
// EntropyMDL reads its entropy terms from a process-wide table instead of
// calling math.Log2 per term. The table covers ranges of up to 1,024
// samples (4.2 MB at that cap) and holds the formula's float64s, so the
// cut points are those of the plain formula. Every product is rounded
// explicitly, so the cuts are also the same on every architecture (see
// split; `make fma-check` guards it).
package discretize

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/fault"
)

// Cutter computes cut thresholds for one gene given its values and the
// sample class labels. EntropyMDL is the paper's choice; EqualWidth and
// EqualFrequency are unsupervised comparators.
type Cutter func(values []float64, classes []int, numClasses int) []float64

// Model holds fitted per-gene cut points and the induced item vocabulary.
type Model struct {
	// GeneCuts[g] holds the sorted accepted cut thresholds of original gene
	// g; genes with no cuts are dropped from the item vocabulary.
	GeneCuts [][]float64
	// Selected lists the original gene indices that survived (≥ 1 cut).
	Selected []int
	// ItemNames names every (gene, interval) item, e.g. "g12[1]".
	ItemNames []string
	// ClassNames is carried over from the training data.
	ClassNames []string

	// itemBase[k] is the first item index of Selected[k]'s intervals.
	itemBase []int
	// position[g] is gene g's index in Selected, or -1 when g was dropped.
	position []int32
	numGenes int
}

// Fit learns entropy-MDL cut points from training data.
func Fit(train *dataset.Continuous) (*Model, error) {
	return FitWithWorkers(context.Background(), train, EntropyMDL, 1)
}

// FitWithWorkers learns cut points using the supplied Cutter on
// max(1, min(workers, genes)) goroutines. Each gene's cut computation
// depends only on that gene's column and the class labels, so genes stripe
// across workers; the item vocabulary is assembled serially in gene order
// afterwards, making the returned model identical for every worker count.
//
// The context is polled once per chunk of genes; a deadline or cancellation
// stops all workers promptly and returns the typed fault.ErrDeadline /
// fault.ErrCanceled. A Cutter panic in any worker, at any worker count, is
// recovered into a *fault.PanicError at site discretize.fit instead of
// crashing the process.
func FitWithWorkers(ctx context.Context, train *dataset.Continuous, cut Cutter, workers int) (*Model, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.NumSamples() == 0 {
		return nil, fmt.Errorf("discretize: no training samples")
	}
	numGenes := train.NumGenes()
	m := &Model{
		GeneCuts:   make([][]float64, numGenes),
		ClassNames: train.ClassNames,
		numGenes:   numGenes,
	}
	workers = max(1, min(workers, numGenes))
	const chunk = 8
	// Workers grab genes in chunks off a shared atomic cursor; every Cutter
	// copies what it keeps, so the per-worker column buffer is safe to
	// reuse. The first error (context stop, injected fault, or recovered
	// panic) wins; other workers drain out at their next poll.
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fault.Recovered("discretize.fit", r)
				}
			}()
			col := make([]float64, train.NumSamples())
			for {
				g0 := int(next.Add(chunk)) - chunk
				if g0 >= numGenes {
					return
				}
				if err := fault.CtxErr(ctx); err != nil {
					errs[w] = err
					return
				}
				if err := fault.Hit("discretize.fit"); err != nil {
					errs[w] = err
					return
				}
				for g := g0; g < g0+chunk && g < numGenes; g++ {
					m.GeneCuts[g] = cutGene(train, cut, col, g)
				}
			}
		}(w)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if _, ok := fault.AsPanic(err); ok {
			firstErr = err
			break
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	m.ItemNames = make([]string, 0, m.index())
	for _, g := range m.Selected {
		for b := 0; b <= len(m.GeneCuts[g]); b++ {
			m.ItemNames = append(m.ItemNames, fmt.Sprintf("%s[%d]", train.GeneNames[g], b))
		}
	}
	return m, nil
}

// index derives Selected, itemBase and position from GeneCuts, the one
// derivation FitWithWorkers and NewModel share, and returns how many items
// the selected genes' intervals add up to.
func (m *Model) index() int {
	m.position = make([]int32, len(m.GeneCuts))
	items := 0
	for g, cuts := range m.GeneCuts {
		m.position[g] = -1
		if len(cuts) > 0 {
			m.position[g] = int32(len(m.Selected))
			m.itemBase = append(m.itemBase, items)
			m.Selected = append(m.Selected, g)
			items += len(cuts) + 1
		}
	}
	return items
}

// cutGene gathers gene g's column into col and runs the Cutter on it.
func cutGene(train *dataset.Continuous, cut Cutter, col []float64, g int) []float64 {
	for i, row := range train.Values {
		col[i] = row[g]
	}
	return cut(col, train.Classes, train.NumClasses())
}

// NumItems returns the size of the boolean item vocabulary.
func (m *Model) NumItems() int { return len(m.ItemNames) }

// NumSelectedGenes returns the number of original genes kept.
func (m *Model) NumSelectedGenes() int { return len(m.Selected) }

// bin returns the interval index of value v for sorted cuts: the number of
// cuts ≤ v... values exactly on a cut fall in the lower interval, matching
// the convention that a cut at t splits into (-inf, t] and (t, +inf).
func bin(cuts []float64, v float64) int {
	return sort.Search(len(cuts), func(i int) bool { return v <= cuts[i] })
}

// Position returns original gene g's index in Selected, or -1 when
// discretization dropped it.
func (m *Model) Position(g int) int { return int(m.position[g]) }

// Item returns the item that value v of the k-th selected gene expresses.
// It is the one binning rule behind Transform, TransformRow and the serving
// layer's request scanner, so no two paths can bin a value differently.
func (m *Model) Item(k int, v float64) int {
	return m.itemBase[k] + bin(m.GeneCuts[m.Selected[k]], v)
}

// Transform maps a continuous dataset (sharing the training gene order)
// into the boolean item representation: each sample expresses exactly one
// item per selected gene.
func (m *Model) Transform(c *dataset.Continuous) (*dataset.Bool, error) {
	if c.NumGenes() != m.numGenes {
		return nil, fmt.Errorf("discretize: dataset has %d genes, model fitted on %d", c.NumGenes(), m.numGenes)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	d := &dataset.Bool{
		GeneNames:   m.ItemNames,
		ClassNames:  c.ClassNames,
		SampleNames: c.SampleNames,
		Classes:     c.Classes,
		Rows:        make([]*bitset.Set, c.NumSamples()),
	}
	for i, row := range c.Values {
		r := bitset.New(len(m.ItemNames))
		for k, g := range m.Selected {
			r.Add(m.Item(k, row[g]))
		}
		d.Rows[i] = r
	}
	return d, nil
}

// EntropyMDL is Fayyad & Irani's entropy-minimized partition with the MDL
// stopping criterion, applied recursively. Values must be finite, as Fit
// checks.
//
// The column is sorted as (value, class) pairs. Ties may land in any
// order: cuts fall only between distinct values, so every candidate sees
// the same class counts. Each entropy subtracts, in class order, the term
// p·log2 p of every class present, read from a table built once for the
// largest training size a fit has seen (up to 1,024 samples; a larger range
// computes its terms). A cached term is the same rounded product as one
// computed afresh, so entropies, gains and cut points are the same float64s
// either way. One set of count slices serves a gene's whole recursion, so a
// gene costs a constant number of allocations.
func EntropyMDL(values []float64, classes []int, numClasses int) []float64 {
	n := len(values)
	ps := make([]pair, n)
	for i, v := range values {
		ps[i] = pair{v, classes[i]}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	counts := make([]int, 3*numClasses)
	s := splitter{
		ps:    ps,
		terms: entropyTerms.table(n),
		total: counts[:numClasses],
		left:  counts[numClasses : 2*numClasses],
		right: counts[2*numClasses:],
	}
	s.split(0, n)
	sort.Float64s(s.cuts)
	return s.cuts
}

// pair is one sample of a gene column.
type pair struct {
	v float64
	c int
}

// splitter is one gene's sorted column, the count slices every range of its
// recursion reuses, and the cuts accepted so far.
type splitter struct {
	ps                 []pair
	terms              *termTable
	total, left, right []int
	cuts               []float64
}

// split recursively splits the range [lo, hi) of the sorted column.
//
// Every product is rounded explicitly (float64(x*y)): the Go spec lets a
// compiler fuse x*y+z into one instruction with a single rounding, which
// arm64 does, and the conversion keeps gains and MDL decisions the same
// float64s on every architecture.
func (s *splitter) split(lo, hi int) {
	n := hi - lo
	if n < 2 {
		return
	}
	// Class counts and entropy of the whole range.
	clear(s.total)
	for _, p := range s.ps[lo:hi] {
		s.total[p.c]++
	}
	ent := s.terms.entropy(s.total, n)
	if ent == 0 {
		return // pure range: nothing to gain
	}

	// Scan candidate cut positions: between adjacent distinct values.
	clear(s.left)
	bestGain, bestPos := -1.0, -1
	var bestLeftEnt, bestRightEnt float64
	var bestLeftK, bestRightK int
	for i := lo; i < hi-1; i++ {
		s.left[s.ps[i].c]++
		if s.ps[i].v == s.ps[i+1].v {
			continue
		}
		nl := i - lo + 1
		nr := n - nl
		for c, t := range s.total {
			s.right[c] = t - s.left[c]
		}
		le := s.terms.entropy(s.left, nl)
		re := s.terms.entropy(s.right, nr)
		gain := ent - (float64(float64(nl)*le)+float64(float64(nr)*re))/float64(n)
		if gain > bestGain {
			bestGain, bestPos = gain, i
			bestLeftEnt, bestRightEnt = le, re
			bestLeftK, bestRightK = distinct(s.left), distinct(s.right)
		}
	}
	if bestPos < 0 {
		return // all values equal
	}

	// MDL acceptance (Fayyad & Irani 1993): accept the cut iff
	// gain > log2(n-1)/n + delta/n with
	// delta = log2(3^k - 2) - (k·E - k1·E1 - k2·E2).
	k := distinct(s.total)
	delta := math.Log2(math.Pow(3, float64(k))-2) -
		(float64(float64(k)*ent) - float64(float64(bestLeftK)*bestLeftEnt) - float64(float64(bestRightK)*bestRightEnt))
	threshold := (math.Log2(float64(n-1)) + delta) / float64(n)
	if bestGain <= threshold {
		return
	}

	s.cuts = append(s.cuts, (s.ps[bestPos].v+s.ps[bestPos+1].v)/2)
	s.split(lo, bestPos+1)
	s.split(bestPos+1, hi)
}

// termCap is the largest range size whose entropy terms are cached. Its
// table holds (termCap+1)(termCap+2)/2 float64s, 4.2 MB; a larger range
// computes its terms afresh.
const termCap = 1024

// termTable caches the entropy term p·log2 p, p = c/m, of every count
// 0 < c ≤ m ≤ n: entry m(m+1)/2 + c holds term(c, m). A table is immutable
// once published, so concurrent fits read it without locks.
type termTable struct {
	n     int
	terms []float64
}

func newTermTable(n int) *termTable {
	t := &termTable{n: n, terms: make([]float64, (n+1)*(n+2)/2)}
	for m := 1; m <= n; m++ {
		row := t.terms[m*(m+1)/2:]
		for c := 1; c <= m; c++ {
			row[c] = term(c, m)
		}
	}
	return t
}

// entropy returns the class entropy of a range of m samples with the given
// class counts: the terms of the classes present, subtracted in class order,
// read from the table or, for a range larger than it covers, computed.
func (t *termTable) entropy(counts []int, m int) float64 {
	e := 0.0
	if m > t.n {
		for _, c := range counts {
			if c > 0 {
				e -= term(c, m)
			}
		}
		return e
	}
	row := t.terms[m*(m+1)/2:]
	for _, c := range counts {
		if c > 0 {
			e -= row[c]
		}
	}
	return e
}

// term is p·log2 p for p = c/m, its product rounded explicitly so that no
// architecture fuses it into the subtraction that uses it.
func term(c, m int) float64 {
	p := float64(c) / float64(m)
	return float64(p * math.Log2(p))
}

// termCache publishes the entropy-term table for the largest training size
// a fit has seen, up to termCap. A fit whose size the table covers reads it
// with one atomic load; growth takes the lock, so that workers that all
// need a larger table build it once.
type termCache struct {
	mu sync.Mutex
	t  atomic.Pointer[termTable]
}

// entropyTerms is the process-wide cache every EntropyMDL call reads.
var entropyTerms termCache

// table returns a table covering ranges of up to min(n, termCap) samples.
func (c *termCache) table(n int) *termTable {
	n = min(n, termCap)
	if t := c.t.Load(); t != nil && t.n >= n {
		return t
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.t.Load(); t != nil && t.n >= n {
		return t
	}
	t := newTermTable(n)
	c.t.Store(t)
	return t
}

func distinct(counts []int) int {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return k
}

// EqualWidthK returns a Cutter placing k-1 equally spaced cuts between the
// min and max training values (class labels are ignored). Constant genes
// get no cuts and are dropped.
func EqualWidthK(k int) Cutter {
	return func(values []float64, _ []int, _ int) []float64 {
		if k < 2 {
			return nil
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if !(hi > lo) {
			return nil
		}
		cuts := make([]float64, 0, k-1)
		for i := 1; i < k; i++ {
			cuts = append(cuts, lo+(hi-lo)*float64(i)/float64(k))
		}
		return cuts
	}
}

// EqualFrequencyK returns a Cutter placing cuts so each of the k bins holds
// roughly the same number of training samples.
func EqualFrequencyK(k int) Cutter {
	return func(values []float64, _ []int, _ int) []float64 {
		if k < 2 || len(values) < k {
			return nil
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		var cuts []float64
		for i := 1; i < k; i++ {
			pos := i * len(sorted) / k
			if pos > 0 && pos < len(sorted) && sorted[pos-1] != sorted[pos] {
				cuts = append(cuts, (sorted[pos-1]+sorted[pos])/2)
			}
		}
		return cuts
	}
}
