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
// BFS candidate for candidate: for random data, PC-shaped groups and three
// constructed ones (a 300-gene upper bound joined past pairs, row sets of
// three words, joins that leave lone members), at every nl, both return
// the same bounds in the same order with the same step count, bound count
// and frontier peak; LowerBounds, fed the same columns, returns the same
// bounds too. The stop path is pinned by arming the carminer.lb fault site:
// both searches stop at the same step with the same error and the same
// partial bounds, which is the poll cadence that budgets and DNF results
// depend on.
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

	for _, j := range jobs {
		genes := j.g.UpperBound.Indices()
		cols := make([]*bitset.Set, len(genes))
		for i, gi := range genes {
			cols[i] = rowsWithGene(j.d, gi)
		}
		target := rowsContaining(j.d, j.g.UpperBound)
		if j.nls == nil {
			j.nls = []int{1, 2, 20, 1 << 30}
		}
		for _, nl := range j.nls {
			what := fmt.Sprintf("%s nl=%d", j.name, nl)
			want := runLB(mineLowerBoundsReference, j.d, j.g, nl, -1)
			sameRun(t, what, runLB(MineLowerBounds, j.d, j.g, nl, -1), want)
			sameBounds(t, what+" LowerBounds", LowerBounds(j.d.NumGenes(), genes, cols, target, nl), want.bounds)
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
	cols := make([]*bitset.Set, len(genes))
	for i, gi := range genes {
		cols[i] = rowsWithGene(d, gi)
	}
	target := rowsContaining(d, g.UpperBound)
	if target.Count() != len(d.Rows) {
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
		sameBounds(t, what+" LowerBounds", LowerBounds(d.NumGenes(), genes, cols, target, nl), want)
	}
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
// carved from, however many candidates it examines.
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
	if steps := runLB(MineLowerBounds, d, g, 1<<30, -1).steps; steps < 50000 {
		t.Errorf("the unlimited search examines only %d candidates; pick a wider group", steps)
	}
}

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
