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
	"bstc/internal/discretize"
	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/synth"
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
		p, err := synth.ProfileByName("PC", synth.Small)
		if err != nil {
			pcErr = err
			return
		}
		c, err := p.Generate()
		if err != nil {
			pcErr = err
			return
		}
		sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(1)), c.NumSamples(), 0.6)
		if err != nil {
			pcErr = err
			return
		}
		train := c.Subset(sp.Train)
		m, err := discretize.Fit(train)
		if err != nil {
			pcErr = err
			return
		}
		if pcData, pcErr = m.Transform(train); pcErr != nil {
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
// BFS candidate for candidate: for random data and PC-shaped groups, at
// every nl, both return the same bounds in the same order with the same
// step count, bound count and frontier peak; LowerBounds, fed the same
// columns, returns the same bounds too. The stop path is pinned by arming
// the carminer.lb fault site: both searches stop at the same step with the
// same error and the same partial bounds, which is the poll cadence that
// budgets and DNF results depend on.
func TestMineLowerBoundsMatchesReference(t *testing.T) {
	type job struct {
		name string
		d    *dataset.Bool
		g    *RuleGroup
		nls  []int // nl values to run; nil is 1, 2, 20 and unlimited
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
