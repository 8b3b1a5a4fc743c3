package carminer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/fault"
	"bstc/internal/obs"
)

var (
	pcOnce   sync.Once
	pcData   *dataset.Bool
	pcGroups [][]*RuleGroup
	pcErr    error
)

// pcTraining returns a synth PC small training split (60%, study-pc's
// training size) discretized as the studies do, and each class's Top-k
// rule groups (RCBT's defaults: minsup 0.7, k 10) — the PC-shaped upper
// bounds whose lower-bound search is most of a PC study.
func pcTraining(tb testing.TB) (*dataset.Bool, [][]*RuleGroup) {
	tb.Helper()
	pcOnce.Do(func() {
		if pcData, pcErr = smallTraining("PC", 0.6); pcErr != nil {
			return
		}
		for ci := 0; ci < pcData.NumClasses(); ci++ {
			res, err := TopKCoveringRuleGroups(context.Background(), pcData, ci, TopKConfig{MinSupport: 0.7, K: 10})
			if err != nil {
				pcErr = err
				return
			}
			pcGroups = append(pcGroups, res.Groups)
		}
	})
	if pcErr != nil {
		tb.Fatal(pcErr)
	}
	return pcData, pcGroups
}

// widestGroup is the first group with the most upper-bound genes.
func widestGroup(groups []*RuleGroup) *RuleGroup {
	var w *RuleGroup
	for _, g := range groups {
		if w == nil || g.UpperBound.Count() > w.UpperBound.Count() {
			w = g
		}
	}
	return w
}

type lbMiner func(context.Context, *dataset.Bool, *RuleGroup, int, Budget) ([]*bitset.Set, error)

// lbRun is one search's outcome: its bounds, its error and its counters.
type lbRun struct {
	bounds             []*bitset.Set
	err                error
	steps, found, peak int64
}

var errLBFault = errors.New("injected lower-bound stop")

// runLB runs one lower-bound search with fresh counters. With skip ≥ 0 it
// arms the carminer.lb fault site to fire on the poll after the first skip.
func runLB(mine lbMiner, d *dataset.Bool, g *RuleGroup, nl, skip int) lbRun {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	if skip >= 0 {
		in := fault.NewInjector(1)
		in.Set("carminer.lb", fault.Rule{Prob: 1, SkipHits: skip, Err: errLBFault})
		fault.Enable(in)
		defer fault.Disable()
	}
	lbs, err := mine(context.Background(), d, g, nl, Budget{})
	return lbRun{
		bounds: lbs,
		err:    err,
		steps:  reg.Counter("carminer.lb.steps").Value(),
		found:  reg.Counter("carminer.lb.bounds").Value(),
		peak:   reg.Gauge("carminer.lb.frontier_peak").Value(),
	}
}

func sameRun(t *testing.T, what string, got, want lbRun) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: err %v, reference %v", what, got.err, want.err)
	}
	if got.steps != want.steps || got.found != want.found || got.peak != want.peak {
		t.Fatalf("%s: steps/bounds/peak %d/%d/%d, reference %d/%d/%d",
			what, got.steps, got.found, got.peak, want.steps, want.found, want.peak)
	}
	sameBounds(t, what, got.bounds, want.bounds)
}

func sameBounds(t *testing.T, what string, got, want []*bitset.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bounds, reference %d", what, len(got), len(want))
	}
	for k := range want {
		if !got[k].Equal(want[k]) {
			t.Fatalf("%s: bound %d is %v, reference %v", what, k, got[k].Indices(), want[k].Indices())
		}
	}
}

// TestMineLowerBoundsMatchesReference pins the slab BFS to the reference
// BFS candidate for candidate: for random data, PC-shaped groups and five
// constructed ones (a 300-gene upper bound joined past pairs, row sets of
// three words, joins that leave lone members, and 64 and 65 rows outside
// the target, so the last row is bit 63 of one word or alone in a second
// word), at every nl, both return the same bounds in the same order with
// the same step count, bound count and frontier peak; LowerBounds, fed the
// same columns, returns the same bounds too. The stop path is pinned by
// arming the carminer.lb fault site: both searches stop at the same step
// with the same error and the same partial bounds, which is the poll
// cadence that budgets and DNF results depend on.
func TestMineLowerBoundsMatchesReference(t *testing.T) {
	type job struct {
		name  string
		d     *dataset.Bool
		g     *RuleGroup
		nls   []int // nl values to run; nil is 1, 2, 20 and unlimited
		skips []int // fault skips to pin at each nl too
		// shape, when set, reports what the unlimited reference search
		// no longer exercises of what a constructed job is for.
		shape func(want lbRun) string
	}
	var jobs []job
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 6; trial++ {
		d := randomBool(r, 12, 14, 2)
		res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.3, K: 20})
		if err != nil {
			t.Fatal(err)
		}
		for k, g := range res.Groups {
			jobs = append(jobs, job{name: fmt.Sprintf("random/%d/%d", trial, k), d: d, g: g})
		}
	}
	// A 300-gene upper bound takes the int32 gene lists. Its target is
	// empty, so every pair of disjoint columns is a bound.
	wide := bitset.New(300)
	wide.Fill()
	jobs = append(jobs, job{name: "wide", d: randomBool(r, 10, 300, 2), g: &RuleGroup{UpperBound: wide}, nls: []int{1, 2, 20}})
	pc, groups := pcTraining(t)
	for ci, gs := range groups {
		for k := 0; k < len(gs); k += 5 {
			jobs = append(jobs, job{name: fmt.Sprintf("pc/%d/%d", ci, k), d: pc, g: gs[k]})
		}
	}
	all := func(genes int) *RuleGroup {
		u := bitset.New(genes)
		u.Fill()
		return &RuleGroup{UpperBound: u}
	}
	skips := []int{0, 1, 2}
	jobs = append(jobs,
		job{name: "deep-int32", d: deepWideRows(r), g: all(300), skips: skips, shape: func(want lbRun) string {
			for _, b := range want.bounds {
				if b.Count() >= 3 && b.Indices()[b.Count()-1] > 255 {
					return ""
				}
			}
			return "no bound of three or more genes reaches past local position 255"
		}},
		job{name: "three-words", d: threeWordRows(r), g: &RuleGroup{UpperBound: bitset.FromIndices(14, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)}, skips: skips, shape: func(want lbRun) string {
			if want.steps < 1000 || want.found < 20 {
				return fmt.Sprintf("only %d steps and %d bounds", want.steps, want.found)
			}
			return ""
		}},
		job{name: "lone-members", d: loneMemberRows(), g: all(6), skips: skips, shape: func(want lbRun) string {
			if want.steps != 27 || want.found != 7 || want.peak != 8 {
				return fmt.Sprintf("steps/bounds/peak %d/%d/%d, want 27/7/8", want.steps, want.found, want.peak)
			}
			return ""
		}},
	)
	for _, outside := range []int{64, 65} {
		d := edgeRows(outside)
		jobs = append(jobs, job{name: fmt.Sprintf("edge-%d", outside), d: d, g: all(edgeGenes), skips: skips, shape: edgeShape(d, outside)})
	}

	for _, j := range jobs {
		if j.nls == nil {
			j.nls = []int{1, 2, 20, 1 << 30}
		}
		for _, nl := range j.nls {
			what := fmt.Sprintf("%s nl=%d", j.name, nl)
			want := runLB(mineLowerBoundsReference, j.d, j.g, nl, -1)
			sameRun(t, what, runLB(MineLowerBounds, j.d, j.g, nl, -1), want)
			sameBounds(t, what+" LowerBounds", lowerBoundsOf(j.d, j.g, nl), want.bounds)
			for _, skip := range j.skips {
				what := fmt.Sprintf("%s fault skip=%d", what, skip)
				sameRun(t, what, runLB(MineLowerBounds, j.d, j.g, nl, skip), runLB(mineLowerBoundsReference, j.d, j.g, nl, skip))
			}
			if nl == 1<<30 && j.shape != nil {
				if msg := j.shape(want); msg != "" {
					t.Fatalf("%s: %s", j.name, msg)
				}
			}
		}
	}

	g := widestGroup(groups[0])
	full := runLB(MineLowerBounds, pc, g, 1<<30, -1)
	if full.steps < 10*lbPoll {
		t.Fatalf("widest PC group examines only %d candidates", full.steps)
	}
	for _, skip := range []int{0, 1, 2, 7, 9} {
		what := fmt.Sprintf("fault skip=%d", skip)
		want := runLB(mineLowerBoundsReference, pc, g, 1<<30, skip)
		if want.err != errLBFault || want.steps != int64(lbPoll*(skip+1)) {
			t.Fatalf("%s: reference stopped at step %d with %v", what, want.steps, want.err)
		}
		sameRun(t, what, runLB(MineLowerBounds, pc, g, 1<<30, skip), want)
	}
}

// TestLowerBoundsNoOutsideRows runs the search with zero row words: every
// row holds the upper bound, so each gene's column is the target and every
// singleton is a bound, found in gene order, by MineLowerBounds, by
// LowerBounds and by the reference alike.
func TestLowerBoundsNoOutsideRows(t *testing.T) {
	d := rowsOf(8, [][]int{{1, 2, 4, 6}, {0, 1, 2, 4, 5, 6}, {1, 2, 3, 4, 6, 7}})
	g := &RuleGroup{UpperBound: bitset.FromIndices(8, 1, 2, 4, 6)}
	genes := g.UpperBound.Indices()
	if target := rowsContaining(d, g.UpperBound); target.Count() != len(d.Rows) {
		t.Fatalf("target %v, want every row", target.Indices())
	}
	for _, nl := range []int{1, 3, 4, 20} {
		what := fmt.Sprintf("nl=%d", nl)
		var want []*bitset.Set
		for _, gi := range genes[:min(nl, len(genes))] {
			want = append(want, bitset.FromIndices(8, gi))
		}
		got := runLB(MineLowerBounds, d, g, nl, -1)
		sameRun(t, what, got, runLB(mineLowerBoundsReference, d, g, nl, -1))
		sameBounds(t, what, got.bounds, want)
		sameBounds(t, what+" LowerBounds", lowerBoundsOf(d, g, nl), want)
	}
}

// lowerBoundsOf runs LowerBounds on the columns of g's upper-bound genes,
// as core's IBRG bounds feed it; it must return what MineLowerBounds does.
func lowerBoundsOf(d *dataset.Bool, g *RuleGroup, nl int) []*bitset.Set {
	genes := g.UpperBound.Indices()
	cols := make([]*bitset.Set, len(genes))
	for i, gi := range genes {
		cols[i] = rowsWithGene(d, gi)
	}
	return LowerBounds(d.NumGenes(), genes, cols, rowsContaining(d, g.UpperBound), nl)
}

// FuzzLowerBounds diffs the slab BFS against the reference BFS on small
// Boolean datasets: genes is 1 + genes%14 genes, so an unlimited search
// examines at most 2^14 candidates, and each two bytes of rows are one
// sample's gene mask, for at most 140 samples, so row sets take 0 to 3
// words. upper, masked to the genes, is the upper bound, and nl 0 runs the
// search unlimited. Both searches must return the same bounds in the same
// order with the same steps, bound count and frontier peak, and
// LowerBounds the same bounds. The seeds include the word-edge datasets of
// TestMineLowerBoundsMatchesReference.
func FuzzLowerBounds(f *testing.F) {
	for _, outside := range []int{64, 65} {
		f.Add(uint8(edgeGenes-1), uint8(0), uint16(1<<edgeGenes-1), geneMasks(edgeRows(outside)))
		f.Add(uint8(edgeGenes-1), uint8(3), uint16(1<<edgeGenes-1), geneMasks(edgeRows(outside)))
	}
	f.Add(uint8(5), uint8(2), uint16(0x3e), []byte{0x3f, 0, 0x06, 0, 0x18, 0, 0x30, 0, 0x2a, 0})
	f.Add(uint8(3), uint8(0), uint16(0xf), []byte(nil))
	f.Fuzz(func(t *testing.T, genes, nl uint8, upper uint16, rows []byte) {
		n := 1 + int(genes)%14
		var samples [][]int
		for k := 0; k+1 < len(rows) && len(samples) < 140; k += 2 {
			samples = append(samples, maskGenes(uint16(rows[k])|uint16(rows[k+1])<<8, n))
		}
		d := rowsOf(n, samples)
		g := &RuleGroup{UpperBound: bitset.FromIndices(n, maskGenes(upper, n)...)}
		limit := int(nl)
		if limit == 0 {
			limit = 1 << 30
		}
		what := fmt.Sprintf("%d genes, %d samples, upper bound %v, nl %d", n, len(samples), g.UpperBound.Indices(), limit)
		want := runLB(mineLowerBoundsReference, d, g, limit, -1)
		sameRun(t, what, runLB(MineLowerBounds, d, g, limit, -1), want)
		sameBounds(t, what+" LowerBounds", lowerBoundsOf(d, g, limit), want.bounds)
	})
}

// maskGenes lists the genes below n whose bits are set in m.
func maskGenes(m uint16, n int) []int {
	var genes []int
	for gi := 0; gi < n; gi++ {
		if m&(1<<gi) != 0 {
			genes = append(genes, gi)
		}
	}
	return genes
}

// geneMasks encodes d's samples (of at most 16 genes) as FuzzLowerBounds
// reads them: each sample's gene mask in two little-endian bytes.
func geneMasks(d *dataset.Bool) []byte {
	var b []byte
	for _, row := range d.Rows {
		var m uint16
		row.ForEach(func(gi int) bool {
			m |= 1 << gi
			return true
		})
		b = append(b, byte(m), byte(m>>8))
	}
	return b
}

// deepWideRows is a dataset for a 300-gene upper bound (every gene) whose
// unlimited search joins past pairs on the int32 path. Row 0 expresses
// every gene, so it is the target. 24 genes, half of them at local
// positions past 255, are also expressed in random subsets of eight more
// rows, so most of their pairs miss the target and the search goes on to
// triples and beyond; every other gene is expressed in row 0 alone, a
// level-1 bound.
func deepWideRows(r *rand.Rand) *dataset.Bool {
	const genes = 300
	rows := make([][]int, 9)
	for g := 0; g < genes; g++ {
		rows[0] = append(rows[0], g)
	}
	for k := 0; k < 12; k++ {
		for _, g := range []int{10 + 20*k, 260 + 3*k} {
			for x := 1; x < len(rows); x++ {
				if r.Intn(2) == 0 {
					rows[x] = append(rows[x], g)
				}
			}
		}
	}
	return rowsOf(genes, rows)
}

// threeWordRows is a dataset of 150 samples, so row sets take three words,
// for the upper bound of genes 1–12: 20 samples express all twelve (the
// target) and the other 130 miss three to five of them at random. Genes 0
// and 13, outside the upper bound, are random.
func threeWordRows(r *rand.Rand) *dataset.Bool {
	rows := make([][]int, 150)
	for i := range rows {
		miss := map[int]bool{}
		if i >= 20 {
			for k := 3 + r.Intn(3); len(miss) < k; {
				miss[1+r.Intn(12)] = true
			}
		}
		for g := 0; g < 14; g++ {
			if (g == 0 || g == 13) && r.Intn(2) == 0 || miss[g] {
				continue
			}
			rows[i] = append(rows[i], g)
		}
	}
	return rowsOf(14, rows)
}

// loneMemberRows is a dataset for the upper bound of genes 0–5 whose joins
// leave lone members. Row 0 expresses every gene (the target); rows A–D
// express {0,1,2}, {0,2,3}, {0,3,4} and {4,5}. Level 2 joins the six genes'
// 15 pairs: the 7 with no row in common are bounds, and of the 8 left only
// gene 0's four share a group; every other gene keeps one join, a lone
// member. Level 3 joins gene 0's group: (0,1,3), (0,1,4) and (0,2,4) hold
// the bounds {1,3}, {1,4} and {2,4}, and (0,1,2), (0,2,3) and (0,3,4)
// survive, each the lone member of its group, so the level stores no
// group. Level 2 is the widest, 8 candidates, and half of them are lone.
func loneMemberRows() *dataset.Bool {
	return rowsOf(6, [][]int{{0, 1, 2, 3, 4, 5}, {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {4, 5}})
}

// edgeGenes is the number of genes of edgeRows's datasets.
const edgeGenes = 12

// edgeRows is a dataset for the upper bound of all edgeGenes genes that
// leaves exactly outside rows outside the target, the last of them the
// edge row: with 64 it is bit 63 of the one row-set word, with 65 the only
// row of a second word. Samples 0 and outside+1 express every gene (the
// target). Each of the outside−1 samples between them expresses one pair
// of genes, cycling through every pair but {0,1}, {2,3}, {4,10} and
// {10,11}; the edge row, sample outside, expresses genes 0–9. So {4,10}
// and {10,11} hold no outside row and hit at level 2, {0,1} and {2,3}
// survive level 2 only through the edge row, and every larger candidate
// holds the edge row at most: those within genes 0–9 survive through it
// alone, and the rest hit, as {0,1,10} does, a bound whose pairs all
// survived level 2.
func edgeRows(outside int) *dataset.Bool {
	all := make([]int, edgeGenes)
	for gi := range all {
		all[gi] = gi
	}
	skip := map[[2]int]bool{{0, 1}: true, {2, 3}: true, {4, 10}: true, {10, 11}: true}
	var pairs [][]int
	for a := 0; a < edgeGenes; a++ {
		for b := a + 1; b < edgeGenes; b++ {
			if !skip[[2]int{a, b}] {
				pairs = append(pairs, []int{a, b})
			}
		}
	}
	rows := [][]int{all}
	for k := 0; k < outside-1; k++ {
		rows = append(rows, pairs[k%len(pairs)])
	}
	rows = append(rows, all[:10], all)
	return rowsOf(edgeGenes, rows)
}

// edgeShape reports what the unlimited reference search on edgeRows(outside)
// no longer exercises: a join that hits at level 2, or a bound of three or
// more genes holding a pair whose only common row outside the target is the
// edge row, which only a search that keeps the edge row finds minimal.
func edgeShape(d *dataset.Bool, outside int) func(lbRun) string {
	viaEdge := rowsContaining(d, bitset.FromIndices(edgeGenes, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))
	viaEdge.Add(outside)
	return func(want lbRun) string {
		pairs, edge := 0, 0
		for _, b := range want.bounds {
			gs := b.Indices()
			if len(gs) == 2 {
				pairs++
				continue
			}
		scan:
			for x := range gs {
				for _, y := range gs[x+1:] {
					if bitset.Intersect(rowsWithGene(d, gs[x]), rowsWithGene(d, y)).Equal(viaEdge) {
						edge++
						break scan
					}
				}
			}
		}
		if pairs == 0 || edge == 0 {
			return fmt.Sprintf("%d two-gene bounds and %d larger bounds over an edge-row pair, want some of each", pairs, edge)
		}
		return ""
	}
}

// rowsOf is a one-class dataset over genes whose sample i expresses rows[i].
func rowsOf(genes int, rows [][]int) *dataset.Bool {
	d := &dataset.Bool{GeneNames: make([]string, genes), ClassNames: []string{"C"}}
	for _, r := range rows {
		d.Classes = append(d.Classes, 0)
		d.Rows = append(d.Rows, bitset.FromIndices(genes, r...))
	}
	return d
}

// TestLowerBoundsSteadyStateAllocs pins the slab BFS's allocations: once
// the pooled slabs are warm, a call allocates only the block its bounds are
// carved from, however many candidates it examines. A search that stops on
// its last bound keeps what its slabs grew in the level it stopped in, so
// run again it allocates nothing.
func TestLowerBoundsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so pooled paths allocate")
	}
	const setup = 3 // bitset.NewBlock: word slab, set headers, pointers
	d, groups := pcTraining(t)
	g := widestGroup(groups[0])
	for _, nl := range []int{1, 20, 1 << 30} {
		mine := func() {
			if _, err := MineLowerBounds(context.Background(), d, g, nl, Budget{}); err != nil {
				t.Fatal(err)
			}
		}
		mine() // warm the pool
		if got := allocsWithRetry(setup, mine); got > setup {
			t.Errorf("nl=%d: MineLowerBounds allocates %v per call, want <= %d", nl, got, setup)
		}
	}

	// The early stop runs on searches of its own, outside the pool: at nl
	// = its bound count the search stops on its last bound, inside a level
	// that must grow the row slabs past what the levels before it stored
	// (the polls see those), so a slab the stop left unstored shows in the
	// warm run.
	full := new(lbSearch)
	full.fill(d, g.UpperBound)
	_ = full.run(1<<30, nil)
	if full.steps < 50000 {
		t.Errorf("the unlimited search examines only %d candidates; pick a wider group", full.steps)
	}
	last := full.nfound
	s := new(lbSearch)
	s.fill(d, g.UpperBound)
	stored := 0 // the row slabs' words before the stop
	_ = s.run(last, func() error {
		stored = max(stored, rowSlabs(s))
		return nil
	})
	if s.steps >= full.steps {
		t.Fatalf("nl=%d examines %d candidates, the unlimited search %d: it does not stop early", last, s.steps, full.steps)
	}
	if got := rowSlabs(s); got <= stored {
		t.Fatalf("nl=%d stops at candidate %d of %d with row slabs of %d words, no more than the %d the earlier levels stored: the level it stops in does not grow them", last, s.steps, full.steps, got, stored)
	}
	stop := func() {
		s.fill(d, g.UpperBound)
		_ = s.run(last, nil)
	}
	if got := testing.AllocsPerRun(20, stop); got != 0 {
		t.Errorf("nl=%d: a warm search that stops on its last bound allocates %v per run, want 0", last, got)
	}
}

// rowSlabs is the words s's two row slabs hold.
func rowSlabs(s *lbSearch) int { return cap(s.rows[0]) + cap(s.rows[1]) }

// allocsWithRetry measures steady-state allocations, retrying because the
// GC may clear the sync.Pool mid-measurement and charge the rebuild to the
// run.
func allocsWithRetry(want float64, f func()) float64 {
	var got float64
	for attempt := 0; attempt < 3; attempt++ {
		if got = testing.AllocsPerRun(20, f); got <= want {
			return got
		}
	}
	return got
}
