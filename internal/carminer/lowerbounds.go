package carminer

import (
	"context"
	"math/bits"
	"sync"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/fault"
)

// lbPoll is the lower-bound BFS's stop cadence: every lbPoll candidates it
// flushes carminer.lb.steps and checks the budget, the context and the
// carminer.lb fault site.
const lbPoll = 256

// MineLowerBounds finds up to nl lower bounds of a rule group: the minimal
// antecedent gene subsets of the upper bound whose support set (over all
// training rows) equals the upper bound's — i.e. the group's minimal
// generators, which share the upper bound's support and confidence.
//
// As §6.2.3 describes, RCBT accomplishes this "via a pruned breadth-first
// search on the subset space of the rule group's upper bound antecedent
// genes"; the search is exponential in the antecedent size, which is exactly
// what blows up on the Prostate Cancer profile (upper bounds with 400+
// genes). The budget (and ctx) turn such blowups into explicit DNF results:
// on expiry the bounds found so far are returned with ErrBudgetExceeded, on
// context stop with the typed fault.ErrDeadline / fault.ErrCanceled.
func MineLowerBounds(ctx context.Context, d *dataset.Bool, g *RuleGroup, nl int, budget Budget) ([]*bitset.Set, error) {
	if nl <= 0 {
		return nil, nil
	}
	s := lbPool.Get().(*lbSearch)
	defer s.release()
	s.genes = s.genes[:0]
	g.UpperBound.ForEach(func(gi int) bool {
		s.genes = append(s.genes, gi)
		return true
	})
	s.reset(len(s.genes), d.NumSamples())
	for r, row := range d.Rows {
		w, bit := r/64, uint64(1)<<(r%64)
		if g.UpperBound.SubsetOf(row) {
			s.target[w] |= bit
		}
		for i, gi := range s.genes {
			if row.Contains(gi) {
				s.rows[0][i*s.rw+w] |= bit
			}
		}
	}
	err := s.run(nl, func() error {
		met.lbSteps.Add(lbPoll)
		if err := budget.Check(ctx); err != nil {
			return err
		}
		return fault.Hit("carminer.lb")
	})
	met.lbSteps.Add(int64(s.steps % lbPoll))
	met.lbBounds.Add(int64(s.numFound()))
	met.lbFrontierPeak.SetMax(int64(s.peak))
	return s.bounds(d.NumGenes()), err
}

// LowerBounds is the same search over explicit columns, with no budget and
// no counters: it returns up to nl minimal subsets of genes (global indices
// over [0, universe), ascending) whose columns intersect to exactly target.
// cols[i] is genes[i]'s support set, over target's universe. core's IBRG
// lower bounds (§4.2) run through it.
func LowerBounds(universe int, genes []int, cols []*bitset.Set, target *bitset.Set, nl int) []*bitset.Set {
	if nl <= 0 {
		return nil
	}
	s := lbPool.Get().(*lbSearch)
	defer s.release()
	s.genes = append(s.genes[:0], genes...)
	s.reset(len(genes), target.Len())
	setWords(s.target, target)
	for i, c := range cols {
		setWords(s.rows[0][i*s.rw:(i+1)*s.rw], c)
	}
	_ = s.run(nl, nil) // without a poll the search cannot stop early
	return s.bounds(universe)
}

var lbPool = sync.Pool{New: func() any { return new(lbSearch) }}

// lbPoolMax caps the slab bytes a pooled search keeps. A search that grew
// past it, a blowup, leaves its slabs to the GC rather than pinning them
// in the pool for the next, usually small, search.
const lbPoolMax = 64 << 20

func (s *lbSearch) release() {
	b := 8 * (cap(s.rows[0]) + cap(s.rows[1]))
	b += cap(s.lists8[0]) + cap(s.lists8[1]) + 4*(cap(s.lists32[0])+cap(s.lists32[1]))
	if b <= lbPoolMax {
		lbPool.Put(s)
	}
}

// lbSearch is the pruned BFS of §6.2.3 with its arenas: it visits the
// apriori candidates in the textbook order (levels by size, each level's
// pairs joined on a shared prefix) without allocating per candidate.
//
// The upper bound's genes are renumbered to local positions 0..n-1. A BFS
// level lives in two slabs, gene lists at a fixed stride (the level) and
// row sets of rw words each; the next level is built in a second pair of
// slabs and the pairs swap. Gene lists take one byte per gene when n <= 256
// (every upper bound of the small-scale profiles), since the frontier's
// width is what bounds the search's memory. A joined candidate is written at the slab tail, and the tail
// advances only when the candidate survives into the next level. Found
// bounds are local gene masks of gw words, chained by their largest gene,
// so the minimality prune is a word-AND against the few bounds that can
// lie inside a candidate. Pooled searches keep their slabs, so a warm call
// allocates only the bounds it returns.
type lbSearch struct {
	genes     []int       // global gene of each local position, ascending
	n, rw, gw int         // local genes, words per row set, words per gene mask
	target    []uint64    // the row set a bound must hit exactly
	rows      [2][]uint64 // the two levels' row sets, rw words each
	lists8    [2][]uint8  // the two levels' gene lists, for n <= 256
	lists32   [2][]int32  // ... otherwise
	found     []uint64    // found bounds' gene masks less their top, gw words each
	tops      []int32     // each found bound's top: its largest gene
	byTop     []int32     // per gene x, the last bound found with top x, or -1
	sameTop   []int32     // per bound, the previous bound with its top, or -1
	prefix    []uint64    // gene mask of the join group's shared prefix
	parent    []uint64    // gene mask of the candidate being extended
	steps     int         // candidates examined
	peak      int         // widest level joined
}

// reset sizes s for n local genes over rows samples, with the level-1 row
// sets (gene i's at rows[0][i·rw:]) and the target zeroed for the caller
// to fill.
func (s *lbSearch) reset(n, rows int) {
	s.n, s.rw, s.gw = n, (rows+63)/64, (n+63)/64
	s.target = zeroed(s.target, s.rw)
	s.rows[0] = zeroed(s.rows[0], n*s.rw)
	s.found, s.tops, s.sameTop = s.found[:0], s.tops[:0], s.sameTop[:0]
	s.byTop = grow(s.byTop, n)[:n]
	for i := range s.byTop {
		s.byTop[i] = -1
	}
	s.prefix = zeroed(s.prefix, s.gw)
	s.parent = zeroed(s.parent, s.gw)
	s.steps, s.peak = 0, 0
}

// run searches for up to nl bounds. poll, when non-nil, runs every lbPoll
// candidates; its error stops the search, leaving the bounds found so far.
func (s *lbSearch) run(nl int, poll func() error) error {
	if s.n <= 256 {
		return bfs(s, &s.lists8, nl, poll)
	}
	return bfs(s, &s.lists32, nl, poll)
}

// lbGene is a local gene position, as stored in the frontier's gene lists.
type lbGene interface{ uint8 | int32 }

// bfs is s.run with gene lists of type G: candidate k of a level of size l
// has genes lists[·][k·l : (k+1)·l] and support rows[·][k·rw : (k+1)·rw].
func bfs[G lbGene](s *lbSearch, lists *[2][]G, nl int, poll func() error) error {
	rw := s.rw
	cur, next := 0, 1
	// Level 1: the singletons, compacted in place — a gene whose column
	// hits the target is a bound; the rest survive.
	lists[cur] = grow(lists[cur], s.n)
	width := 0 // candidates in the current level
	for i := 0; i < s.n; i++ {
		if s.steps++; poll != nil && s.steps%lbPoll == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
		col := s.rows[cur][i*rw : (i+1)*rw]
		if equalWords(col, s.target) {
			clear(s.parent)
			if s.emit(int32(i)) >= nl {
				return nil
			}
			continue
		}
		copy(s.rows[cur][width*rw:], col)
		lists[cur][width] = G(i)
		width++
	}

	// Levels 2..n: join pairs of the level that share all but their last
	// gene. The level is in lexicographic order, so each join group is a
	// contiguous run. A joined candidate's support is the intersection of
	// its parents'; it is a bound when that hits the target.
	for l := 1; width > 0 && s.numFound() < nl; l++ {
		s.peak = max(s.peak, width)
		genes, rows := lists[cur], s.rows[cur]
		built := 0 // candidates in the next level
		end := 0   // the current join group is [.., end)
		for i := 0; i < width; i++ {
			a := genes[i*l : (i+1)*l]
			if i >= end {
				end = i + 1
				for end < width && samePrefix(a, genes[end*l:(end+1)*l]) {
					end++
				}
				if end > i+1 {
					setMask(s.prefix, a[:l-1])
				}
			}
			if i+1 == end {
				continue // last of its join group: nothing to join
			}
			copy(s.parent, s.prefix)
			y := a[l-1]
			s.parent[y/64] |= 1 << (y % 64)
			ar := rows[i*rw : (i+1)*rw]
			for j := i + 1; j < end; j++ {
				if s.steps++; poll != nil && s.steps%lbPoll == 0 {
					if err := poll(); err != nil {
						return err
					}
				}
				// Minimality prune: a+x holding a found bound is not a
				// minimal generator. No bound lies inside a (a survived
				// every bound of its level and below; the bounds of this
				// level are larger), so such a bound's largest gene is x.
				x := genes[(j+1)*l-1]
				if s.byTop[x] >= 0 && s.holdsBound(int32(x)) {
					continue
				}
				t := built // the next level's tail
				s.rows[next] = grow(s.rows[next], (t+1)*rw)
				dst, br := s.rows[next][t*rw:(t+1)*rw], rows[j*rw:(j+1)*rw]
				hit := true
				for w := range dst {
					dst[w] = ar[w] & br[w]
					hit = hit && dst[w] == s.target[w]
				}
				if hit {
					if s.emit(int32(x)) >= nl {
						return nil
					}
					continue
				}
				lists[next] = grow(lists[next], (t+1)*(l+1))
				g := lists[next][t*(l+1) : (t+1)*(l+1)]
				copy(g, a)
				g[l] = x
				built++
			}
		}
		cur, next = next, cur
		width = built
	}
	return nil
}

// setMask sets mask to the genes of p.
func setMask[G lbGene](mask []uint64, p []G) {
	clear(mask)
	for _, i := range p {
		mask[i/64] |= 1 << (i % 64)
	}
}

// emit records the bound s.parent+x, whose top is x, and returns how many
// bounds have been found.
func (s *lbSearch) emit(x int32) int {
	s.found = append(s.found, s.parent...)
	s.sameTop = append(s.sameTop, s.byTop[x])
	s.byTop[x] = int32(len(s.tops))
	s.tops = append(s.tops, x)
	return len(s.tops)
}

// holdsBound reports whether s.parent+x contains a found bound with top x.
func (s *lbSearch) holdsBound(x int32) bool {
	for k := s.byTop[x]; k >= 0; k = s.sameTop[k] {
		inside := true
		for w, fw := range s.found[int(k)*s.gw : int(k+1)*s.gw] {
			if fw&^s.parent[w] != 0 {
				inside = false
				break
			}
		}
		if inside {
			return true
		}
	}
	return false
}

func (s *lbSearch) numFound() int { return len(s.tops) }

// bounds returns the found bounds as sets of global genes over
// [0, universe), in the order found.
func (s *lbSearch) bounds(universe int) []*bitset.Set {
	k := s.numFound()
	if k == 0 {
		return nil
	}
	out := bitset.NewBlock(universe, k)
	for b, set := range out {
		for w, m := range s.found[b*s.gw : (b+1)*s.gw] {
			for ; m != 0; m &= m - 1 {
				set.Add(s.genes[w*64+bits.TrailingZeros64(m)])
			}
		}
		set.Add(s.genes[s.tops[b]])
	}
	return out
}

// samePrefix reports whether two equal-length sorted gene lists agree on all
// but the last element (the apriori join condition).
func samePrefix[G lbGene](a, b []G) bool {
	for k := 0; k < len(a)-1; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

func equalWords(a, b []uint64) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// setWords ORs the members of s into the row-set words dst.
func setWords(dst []uint64, s *bitset.Set) {
	s.ForEach(func(r int) bool {
		dst[r/64] |= 1 << (r % 64)
		return true
	})
}

// grow returns s with length at least n, keeping its contents; capacity
// grows geometrically and is kept for the next call.
func grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// zeroed returns s resized to n zeroed elements.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)[:n]
	clear(s)
	return s
}
