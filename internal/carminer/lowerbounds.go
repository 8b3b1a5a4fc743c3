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
	// The target is the rows holding the whole upper bound; row sets
	// cover the other rows alone (see lbSearch).
	outside := 0
	for _, row := range d.Rows {
		if !g.UpperBound.SubsetOf(row) {
			outside++
		}
	}
	s.reset(len(s.genes), outside)
	k := 0
	for _, row := range d.Rows {
		if g.UpperBound.SubsetOf(row) {
			continue
		}
		for i, gi := range s.genes {
			if row.Contains(gi) {
				s.rows[0][i*s.rw+k/64] |= 1 << (k % 64)
			}
		}
		k++
	}
	err := s.run(nl, func() error {
		met.lbSteps.Add(lbPoll)
		if err := budget.Check(ctx); err != nil {
			return err
		}
		return fault.Hit("carminer.lb")
	})
	met.lbSteps.Add(int64(s.steps % lbPoll))
	met.lbBounds.Add(int64(s.nfound))
	met.lbFrontierPeak.SetMax(int64(s.peak))
	return s.bounds(d.NumGenes()), err
}

// LowerBounds is the same search over explicit columns, with no budget and
// no counters: it returns up to nl minimal subsets of genes (global indices
// over [0, universe), ascending) whose columns intersect to exactly target.
// cols[i] is genes[i]'s support set, over target's universe, and every
// column must hold the target, as the columns of an upper bound's genes do:
// the search reads only the rows outside the target. core's IBRG lower
// bounds (§4.2) run through it, over genes every supporting column
// expresses.
func LowerBounds(universe int, genes []int, cols []*bitset.Set, target *bitset.Set, nl int) []*bitset.Set {
	if nl <= 0 {
		return nil
	}
	s := lbPool.Get().(*lbSearch)
	defer s.release()
	s.genes = append(s.genes[:0], genes...)
	s.reset(len(genes), target.Len()-target.Count())
	k := 0
	for r := 0; r < target.Len(); r++ {
		if target.Contains(r) {
			continue
		}
		for i, c := range cols {
			if c.Contains(r) {
				s.rows[0][i*s.rw+k/64] |= 1 << (k % 64)
			}
		}
		k++
	}
	_ = s.run(nl, nil) // without a poll the search cannot stop early
	return s.bounds(universe)
}

var lbPool = sync.Pool{New: func() any { return new(lbSearch) }}

// lbPoolMax caps the slab bytes a pooled search keeps. A search that grew
// past it, a blowup, leaves its slabs to the GC rather than pinning them
// in the pool for the next, usually small, search.
const lbPoolMax = 64 << 20

// release pools s unless its slabs, every one of which a pooled search
// keeps, hold more than lbPoolMax bytes.
func (s *lbSearch) release() {
	b := 8 * (cap(s.genes) + cap(s.found) + cap(s.mask))
	for k := range s.rows {
		b += 8*cap(s.rows[k]) + 4*cap(s.start[k])
		b += cap(s.lists8[k].prefix) + cap(s.lists8[k].last)
		b += 4 * (cap(s.lists32[k].prefix) + cap(s.lists32[k].last))
	}
	if b <= lbPoolMax {
		lbPool.Put(s)
	}
}

// lbSearch is the pruned BFS of §6.2.3 with its arenas: it visits the
// apriori candidates in the textbook order (levels by size, each level's
// pairs joined on a shared prefix) without allocating per candidate.
//
// The upper bound's genes are renumbered to local positions 0..n-1. Every
// gene's column holds the target, so a candidate's support always does,
// and it hits the target exactly when it holds none of the other rows: a
// row set covers only the rows outside the target, and a hit is an empty
// one. A BFS level of l-gene candidates is a list of join groups: group k
// stores its shared prefix of l−1 genes once and the offset of its first
// member, and a member stores only its last gene and its row set of rw
// words. Member i of a group opens the next level's group prefix+gene(i),
// whose members are the joins (i, j>i) that survive the minimality prune
// and miss the target; a group left with fewer than two members joins
// nothing and is not stored. The next level is built in a second set of slabs and the
// sets swap. Genes take one byte when n <= 256 (every upper bound of the
// small-scale profiles), since the frontier's width is what bounds the
// search's memory. Found bounds are local gene masks of gw words. A
// candidate holding a found bound has that bound's support, the target, so
// only a hit can fail the minimality prune, which is then a word-AND
// against each of the at most nl found masks.
// Pooled searches keep their slabs, so a warm call allocates only the
// bounds it returns.
type lbSearch struct {
	genes     []int             // global gene of each local position, ascending
	n, rw, gw int               // local genes, words per row set, words per gene mask
	rows      [2][]uint64       // the two levels' member row sets, rw words each
	start     [2][]int32        // group k's members are [start[k], start[k+1])
	lists8    [2]lbLists[uint8] // the two levels' genes, for n <= 256
	lists32   [2]lbLists[int32] // ... otherwise
	found     []uint64          // found bounds' gene masks, gw words each
	nfound    int               // bounds found
	mask      []uint64          // gene mask of the hit being checked
	steps     int               // candidates examined
	peak      int               // widest level joined
}

// lbLists is one level's genes: each group's prefix, at a stride of the
// prefix's length, and each member's last gene.
type lbLists[G lbGene] struct{ prefix, last []G }

// reset sizes s for n local genes over the given number of rows outside
// the target, with the level-1 row sets (gene i's at rows[0][i·rw:])
// zeroed for the caller to fill.
func (s *lbSearch) reset(n, outside int) {
	s.n, s.rw, s.gw = n, (outside+63)/64, (n+63)/64
	s.rows[0] = zeroed(s.rows[0], n*s.rw)
	s.found, s.nfound = s.found[:0], 0
	s.mask = grow(s.mask, s.gw)[:s.gw]
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

// bfs is s.run with genes of type G: at a level of l-gene candidates,
// group k's prefix is lists[·].prefix[k·(l−1) : (k+1)·(l−1)] and its
// members are m in [start[·][k], start[·][k+1]), with last gene
// lists[·].last[m] and support rows[·][m·rw : (m+1)·rw].
func bfs[G lbGene](s *lbSearch, lists *[2]lbLists[G], nl int, poll func() error) error {
	rw := s.rw
	cur, next := 0, 1
	// Level 1: the singletons, compacted in place — a gene whose column
	// holds no row outside the target is a bound; the rest survive, as the
	// members of one group with an empty prefix.
	lists[cur].last = grow(lists[cur].last, s.n)
	width := 0 // candidates in the current level
	for i := 0; i < s.n; i++ {
		if s.steps++; poll != nil && s.steps%lbPoll == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
		col := s.rows[cur][i*rw : (i+1)*rw]
		if noRows(col) {
			if emit(s, nil, G(i), G(i)) >= nl { // a singleton is its own y and x
				return nil
			}
			continue
		}
		copy(s.rows[cur][width*rw:], col)
		lists[cur].last[width] = G(i)
		width++
	}
	s.start[cur] = append(s.start[cur][:0], 0, int32(width))
	groups := 1 // join groups stored in the current level

	// Levels 2..n: each member joins the later members of its group. The
	// levels are in lexicographic order, as the textbook join makes them.
	// A joined candidate's support is the intersection of the two joined
	// members' supports; it is a bound when that is the target (its row
	// set is empty) and it holds no found bound. A miss holds none, since a
	// bound's supersets all have the target as their support.
	for l := 1; width > 0 && s.nfound < nl; l++ {
		s.peak = max(s.peak, width)
		in, out := &lists[cur], &lists[next]
		rows, start := s.rows[cur], s.start[cur]
		width = 0       // candidates in the next level
		built := 0      // members stored in the next level
		nextGroups := 0 // groups stored in the next level
		s.start[next] = s.start[next][:0]
		for k := 0; k < groups; k++ {
			prefix := in.prefix[k*(l-1) : (k+1)*(l-1)]
			end := int(start[k+1])
			for i := int(start[k]); i < end-1; i++ {
				// Member i opens the group prefix+y; the next level's
				// slabs grow once for all of its possible members.
				y := in.last[i]
				first := built
				out.last = grow(out.last, built+end-i-1)
				s.rows[next] = grow(s.rows[next], (built+end-i-1)*rw)
				dst, ar := s.rows[next], rows[i*rw:(i+1)*rw]
				for j := i + 1; j < end; j++ {
					if s.steps++; poll != nil && s.steps%lbPoll == 0 {
						if err := poll(); err != nil {
							return err
						}
					}
					x := in.last[j]
					if andHits(dst[built*rw:(built+1)*rw], ar, rows[j*rw:(j+1)*rw]) {
						if emit(s, prefix, y, x) >= nl {
							return nil
						}
						continue
					}
					out.last[built] = x
					built++
				}
				// Every survivor is in the next level's width, but a lone
				// one joins nothing, so only a pair or more is stored.
				width += built - first
				if built-first < 2 {
					built = first
					continue
				}
				out.prefix = grow(out.prefix, (nextGroups+1)*l)
				p := out.prefix[nextGroups*l : (nextGroups+1)*l]
				copy(p, prefix)
				p[l-1] = y
				s.start[next] = append(s.start[next], int32(first))
				nextGroups++
			}
		}
		s.start[next] = append(s.start[next], int32(built))
		cur, next = next, cur
		groups = nextGroups
	}
	return nil
}

// andHits writes a∧b into dst and reports whether it is empty: whether the
// joined candidate's support is the target. It is the BFS's one row-set
// kernel, for every width: the operands are cut to dst's length so the
// loop runs without bounds checks, and the test ORs the words into one
// instead of branching.
func andHits(dst, a, b []uint64) bool {
	a, b = a[:len(dst)], b[:len(dst)]
	var rows uint64
	for w := range dst {
		v := a[w] & b[w]
		dst[w] = v
		rows |= v
	}
	return rows == 0
}

// emit is the minimality prune of a hit prefix+y+x: it records the
// candidate as a bound unless a found bound lies inside it, and returns how
// many bounds have been found.
func emit[G lbGene](s *lbSearch, prefix []G, y, x G) int {
	clear(s.mask)
	for _, i := range prefix {
		s.mask[i/64] |= 1 << (i % 64)
	}
	s.mask[y/64] |= 1 << (y % 64)
	s.mask[x/64] |= 1 << (x % 64)
	for k := 0; k < s.nfound; k++ {
		if insideMask(s.found[k*s.gw:(k+1)*s.gw], s.mask) {
			return s.nfound
		}
	}
	s.found = append(s.found, s.mask...)
	s.nfound++
	return s.nfound
}

// insideMask reports whether every gene of a is in b.
func insideMask(a, b []uint64) bool {
	for w, aw := range a {
		if aw&^b[w] != 0 {
			return false
		}
	}
	return true
}

// bounds returns the found bounds as sets of global genes over
// [0, universe), in the order found.
func (s *lbSearch) bounds(universe int) []*bitset.Set {
	if s.nfound == 0 {
		return nil
	}
	out := bitset.NewBlock(universe, s.nfound)
	for b, set := range out {
		for w, m := range s.found[b*s.gw : (b+1)*s.gw] {
			for ; m != 0; m &= m - 1 {
				set.Add(s.genes[w*64+bits.TrailingZeros64(m)])
			}
		}
	}
	return out
}

// noRows reports whether the row set a is empty.
func noRows(a []uint64) bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
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
