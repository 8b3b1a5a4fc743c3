package carminer

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// denseBool builds a dataset whose rows share most genes — the regime where
// the closed-itemset lattice explodes and the exact miner hits its budget.
func denseBool(r *rand.Rand, samples, genes, classes int) *dataset.Bool {
	d := &dataset.Bool{
		GeneNames:  make([]string, genes),
		ClassNames: make([]string, classes),
	}
	for g := range d.GeneNames {
		d.GeneNames[g] = "g"
	}
	for c := range d.ClassNames {
		d.ClassNames[c] = "C"
	}
	for i := 0; i < samples; i++ {
		cl := i % classes
		row := bitset.New(genes)
		for g := 0; g < genes; g++ {
			if r.Intn(10) < 8 { // 80% density
				row.Add(g)
			}
		}
		d.Rows = append(d.Rows, row)
		d.Classes = append(d.Classes, cl)
	}
	return d
}

// TestDynamicFloorsMatchReference pins the exact-safety of the dynamic
// floor machinery: with floors enabled (the default) the miner's output is
// byte-identical to the reference pruning.
func TestDynamicFloorsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	cfgs := []TopKConfig{
		{MinSupport: 0.3, K: 2},
		{MinSupport: 0.5, K: 1},
		{MinSupport: 0.2, K: 5},
		{MinSupport: 0.7, K: 3},
	}
	for trial := 0; trial < 8; trial++ {
		d := randomBool(r, 8+r.Intn(12), 10+r.Intn(20), 2)
		for ci := 0; ci < 2; ci++ {
			for _, base := range cfgs {
				ref := base
				ref.disableFloors = true
				want, err := TopKCoveringRuleGroups(context.Background(), d, ci, ref)
				if err != nil {
					t.Fatal(err)
				}
				got, err := TopKCoveringRuleGroups(context.Background(), d, ci, base)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d ci=%d cfg=%+v: floored miner differs from reference (%d vs %d groups)",
						trial, ci, base, len(got.Groups), len(want.Groups))
				}
			}
		}
	}
}

// TestTopKMaxNodes pins the deterministic node budget: a tight MaxNodes
// stops the run with ErrBudgetExceeded and partial results, repeatably; a
// generous one completes.
func TestTopKMaxNodes(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	d := randomBool(r, 24, 40, 2)
	tight := TopKConfig{MinSupport: 0.2, K: 5, MaxNodes: 128}
	res, err := TopKCoveringRuleGroups(context.Background(), d, 0, tight)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("MaxNodes=128: err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("MaxNodes stop must still return partial results")
	}
	again, err2 := TopKCoveringRuleGroups(context.Background(), d, 0, tight)
	if !errors.Is(err2, ErrBudgetExceeded) || !reflect.DeepEqual(res, again) {
		t.Fatal("MaxNodes stop is not deterministic")
	}
	loose := tight
	loose.MaxNodes = 1 << 30
	if _, err := TopKCoveringRuleGroups(context.Background(), d, 0, loose); err != nil {
		t.Fatalf("generous MaxNodes: %v", err)
	}
}

// TestApproxCompletesWhereExactDNFs is the headline acceptance check: a
// node budget under which exact mining DNFs but the approximate mode
// finishes — and every group the approximate run returns is a true closed
// rule group with exact stats (a subset of the exact answer).
func TestApproxCompletesWhereExactDNFs(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	// Exact needs ~22k nodes on this profile, approx (ε=0.2) ~7k; the 12k
	// budget splits them with headroom on both sides.
	d := denseBool(r, 36, 60, 2)
	base := TopKConfig{MinSupport: 0.3, K: 5, MaxNodes: 12_000}
	if _, err := TopKCoveringRuleGroups(context.Background(), d, 0, base); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("exact run under %d nodes: err = %v, want ErrBudgetExceeded", base.MaxNodes, err)
	}
	approx := base
	approx.Approx = ApproxConfig{Epsilon: 0.2}
	res, err := TopKCoveringRuleGroups(context.Background(), d, 0, approx)
	if err != nil {
		t.Fatalf("approx run under the same budget: %v", err)
	}
	if res.Approx == nil {
		t.Fatal("approximate run returned no ApproxReport")
	}
	want := bruteForceClosed(d, 0, base.MinSupport)
	for _, g := range res.Groups {
		bg, ok := want[g.UpperBound.Key()]
		if !ok {
			t.Fatalf("approx group %v is not a closed itemset of the exact answer", g.UpperBound.Indices())
		}
		if g.Support != bg.Support || g.TotalRows != bg.TotalRows || g.Confidence != bg.Confidence {
			t.Fatalf("approx group %v has stats %d/%d, exact %d/%d — approx mode must never fake stats",
				g.UpperBound.Indices(), g.Support, g.TotalRows, bg.Support, bg.TotalRows)
		}
	}
}

// TestApproxReportBounds checks the error accounting: resolved width and
// epsilon, arrival sandwich per group, and a sane overcount bound.
func TestApproxReportBounds(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	d := randomBool(r, 20, 30, 2)
	cfg := TopKConfig{MinSupport: 0.25, K: 4, Approx: ApproxConfig{Epsilon: 0.1}}
	res, err := TopKCoveringRuleGroups(context.Background(), d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Approx
	if rep == nil {
		t.Fatal("no ApproxReport")
	}
	if rep.Width != 10 || rep.Epsilon != 0.1 {
		t.Fatalf("resolved (width, epsilon) = (%d, %v), want (10, 0.1)", rep.Width, rep.Epsilon)
	}
	if rep.SupportSlack < 1 {
		t.Fatalf("support slack %d, want ≥ 1", rep.SupportSlack)
	}
	if rep.Arrivals == 0 {
		t.Fatal("sketch saw no arrivals")
	}
	for _, g := range res.Groups {
		if g.ArrivalEstimate == 0 {
			t.Fatalf("group %v has no arrival estimate", g.UpperBound.Indices())
		}
		if g.ArrivalError > g.ArrivalEstimate {
			t.Fatalf("group %v: error %d exceeds estimate %d", g.UpperBound.Indices(), g.ArrivalError, g.ArrivalEstimate)
		}
	}
	// Exact mode must not carry a report or estimates.
	exact, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.25, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Approx != nil {
		t.Fatal("exact run carries an ApproxReport")
	}
	for _, g := range exact.Groups {
		if g.ArrivalEstimate != 0 || g.ArrivalError != 0 {
			t.Fatal("exact run carries arrival estimates")
		}
	}
}

// TestApproxParallelRepeatable: approximate runs are deterministic (the
// sketch sees the same arrival order every run).
func TestApproxParallelRepeatable(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	d := randomBool(r, 18, 26, 2)
	cfg := TopKConfig{MinSupport: 0.2, K: 4, Approx: ApproxConfig{Epsilon: 0.15}}
	first, err := TopKCoveringRuleGroups(context.Background(), d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := TopKCoveringRuleGroups(context.Background(), d, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: approximate mining not repeatable", i)
		}
	}
}

// TestApproxConfigValidation rejects out-of-range knobs at the API edge.
func TestApproxConfigValidation(t *testing.T) {
	d := dataset.PaperTable1()
	for _, bad := range []ApproxConfig{{Epsilon: 1.5}, {Epsilon: -0.1}, {Width: -2}} {
		_, err := TopKCoveringRuleGroups(context.Background(), d, 0,
			TopKConfig{MinSupport: 0.5, K: 2, Approx: bad})
		if err == nil {
			t.Errorf("approx config %+v accepted", bad)
		}
	}
	if (ApproxConfig{}).Enabled() {
		t.Error("zero ApproxConfig reports enabled")
	}
	if w := (ApproxConfig{Epsilon: 0.3}).ResolveWidth(); w != 4 {
		t.Errorf("ResolveWidth(ε=0.3) = %d, want 4", w)
	}
	if e := (ApproxConfig{Width: 8}).ResolveEpsilon(); e != 0.125 {
		t.Errorf("ResolveEpsilon(width=8) = %v, want 0.125", e)
	}
}
