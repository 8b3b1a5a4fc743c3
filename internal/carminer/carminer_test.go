package carminer

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

func TestTopKOnPaperTable1(t *testing.T) {
	d := dataset.PaperTable1()
	res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.5, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no rule groups mined")
	}
	// {g1, g3} (indices 0, 2) is a closed itemset with class support {s1,s2}
	// and confidence 1 — the paper's flagship CAR. Find it.
	want := bitset.FromIndices(6, 0, 2)
	foundIt := false
	for _, g := range res.Groups {
		if g.UpperBound.Equal(want) {
			foundIt = true
			if g.Support != 2 || g.Confidence != 1 {
				t.Errorf("g1,g3 group: support=%d conf=%v, want 2, 1", g.Support, g.Confidence)
			}
			if got := g.ClassRows.Indices(); !reflect.DeepEqual(got, []int{0, 1}) {
				t.Errorf("g1,g3 class rows = %v, want [0 1]", got)
			}
		}
	}
	if !foundIt {
		t.Error("closed group {g1,g3} not mined")
	}
	// Covering: every class row has a non-empty top-k list.
	for _, r := range []int{0, 1, 2} {
		if len(res.PerRow[r]) == 0 {
			t.Errorf("row %d has no covering groups", r)
		}
		// Lists are sorted by confidence desc then support desc.
		lst := res.PerRow[r]
		for i := 1; i < len(lst); i++ {
			if lst[i].Confidence > lst[i-1].Confidence ||
				(lst[i].Confidence == lst[i-1].Confidence && lst[i].Support > lst[i-1].Support) {
				t.Errorf("row %d covering list not sorted", r)
			}
		}
	}
}

func TestTopKClosedAndComplete(t *testing.T) {
	// Against brute force: every closed itemset with class support ≥ minsup
	// appears when k is large, with correct support/confidence; and every
	// mined group is genuinely closed. The 7×7 matrices fit in one word;
	// the 72-sample, 70-gene ones cross the word boundary on both axes,
	// with 12 class-0 rows so brute force stays at 2^12 subsets.
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		checkClosedAndComplete(t, trial, randomBool(r, 7, 7, 2), 1000)
	}
	for trial := 0; trial < 3; trial++ {
		d := randomBool(r, 72, 70, 2)
		for i, pos := range r.Perm(len(d.Classes)) {
			d.Classes[pos] = 1
			if i < 12 {
				d.Classes[pos] = 0
			}
		}
		checkClosedAndComplete(t, trial, d, 1<<12)
	}
}

// checkClosedAndComplete mines class 0 of d at minsup 0.3 with a k large
// enough to keep every group and compares the result with brute force.
func checkClosedAndComplete(t *testing.T, trial int, d *dataset.Bool, k int) {
	t.Helper()
	res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.3, K: k})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*RuleGroup{}
	for _, g := range res.Groups {
		got[g.UpperBound.Key()] = g
	}
	want := bruteForceClosed(d, 0, 0.3)
	for key, bg := range want {
		mg, ok := got[key]
		if !ok {
			t.Fatalf("%d×%d trial %d: closed itemset %v missing (have %d, want %d)",
				d.NumSamples(), d.NumGenes(), trial, bg.UpperBound.Indices(), len(got), len(want))
		}
		if mg.Support != bg.Support || mg.TotalRows != bg.TotalRows {
			t.Fatalf("%d×%d trial %d: itemset %v support %d/%d, want %d/%d",
				d.NumSamples(), d.NumGenes(), trial, bg.UpperBound.Indices(), mg.Support, mg.TotalRows, bg.Support, bg.TotalRows)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Fatalf("%d×%d trial %d: miner produced non-closed or sub-support itemset %v",
				d.NumSamples(), d.NumGenes(), trial, got[key].UpperBound.Indices())
		}
	}
}

// bruteForceClosed enumerates every subset of class rows, intersects genes,
// and keeps the distinct closed itemsets with class support ≥ frac·|C|.
func bruteForceClosed(d *dataset.Bool, ci int, frac float64) map[string]*RuleGroup {
	var classRows []int
	for i, cl := range d.Classes {
		if cl == ci {
			classRows = append(classRows, i)
		}
	}
	minSup := int(frac*float64(len(classRows)) + 0.999999)
	if minSup < 1 {
		minSup = 1
	}
	out := map[string]*RuleGroup{}
	for mask := 1; mask < 1<<len(classRows); mask++ {
		itemset := bitset.New(d.NumGenes())
		itemset.Fill()
		for b, r := range classRows {
			if mask&(1<<b) != 0 {
				itemset.And(d.Rows[r])
			}
		}
		if itemset.IsEmpty() {
			continue
		}
		support, total := 0, 0
		classSet := bitset.New(d.NumSamples())
		for i, row := range d.Rows {
			if itemset.SubsetOf(row) {
				total++
				if d.Classes[i] == ci {
					support++
					classSet.Add(i)
				}
			}
		}
		if support < minSup {
			continue
		}
		out[itemset.Key()] = &RuleGroup{
			Class: ci, UpperBound: itemset, ClassRows: classSet,
			Support: support, TotalRows: total,
			Confidence: float64(support) / float64(total),
		}
	}
	return out
}

func TestTopKRespectsMinSupport(t *testing.T) {
	d := dataset.PaperTable1()
	res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.7, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	// 0.7 of 3 class rows rounds up to 3: only itemsets in all three Cancer
	// samples qualify — and no gene is shared by all three, so none exist.
	if len(res.Groups) != 0 {
		t.Errorf("minsup 0.7 over Table 1 should yield no groups, got %d", len(res.Groups))
	}
}

func TestTopKParameterValidation(t *testing.T) {
	d := dataset.PaperTable1()
	if _, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.5, K: 0}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 1.5, K: 1}); err == nil {
		t.Error("minsup > 1 should error")
	}
	empty := &dataset.Bool{GeneNames: []string{"g"}, ClassNames: []string{"A", "B"},
		Classes: []int{0}, Rows: []*bitset.Set{bitset.FromIndices(1, 0)}}
	if _, err := TopKCoveringRuleGroups(context.Background(), empty, 1, TopKConfig{MinSupport: 0.5, K: 1}); err == nil {
		t.Error("class with no rows should error")
	}
}

func TestTopKBudgetExpires(t *testing.T) {
	// A large random dataset with an already-expired deadline must abort
	// promptly with ErrBudgetExceeded.
	r := rand.New(rand.NewSource(43))
	d := randomBool(r, 40, 60, 2)
	_, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{
		MinSupport: 0.01, K: 10,
		Budget: Budget{Deadline: time.Now().Add(-time.Second)},
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("expected ErrBudgetExceeded, got %v", err)
	}
}

// TestDFSSteadyStateAllocs pins the hot path: re-walking an already
// enumerated node (scratch stacks warm, states populated) must not allocate.
func TestDFSSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	d := randomBool(r, 16, 24, 2)
	var classRows []int
	for i, cl := range d.Classes {
		if cl == 0 {
			classRows = append(classRows, i)
		}
	}
	m := newTopkMiner(context.Background(), d, 0, classRows, 3, TopKConfig{K: 4})
	if err := m.run(); err != nil {
		t.Fatal(err)
	}
	// Every root is now a revisit: dfs recomputes the closure and key, hits
	// the states map through the byte-slice fast path, and backs out.
	if n := testing.AllocsPerRun(50, func() {
		if err := m.dfs(m.root, 0, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state dfs allocates %v times per node, want 0", n)
	}
}

func TestMineLowerBoundsExact(t *testing.T) {
	// Construct a dataset where the upper bound {a,b,c} has minimal
	// generators {a} and {b,c}: gene a appears exactly in the target rows;
	// b and c each appear more widely but their conjunction is exact.
	d, err := dataset.FromItems(
		map[string][]string{
			"r1": {"a", "b", "c"},
			"r2": {"a", "b", "c"},
			"r3": {"b", "x"},
			"r4": {"c", "x"},
			"r5": {"x"},
		},
		map[string]string{"r1": "T", "r2": "T", "r3": "F", "r4": "F", "r5": "F"},
	)
	if err != nil {
		t.Fatal(err)
	}
	gi := geneIndex(d)
	upper := bitset.FromIndices(d.NumGenes(), gi["a"], gi["b"], gi["c"])
	g := &RuleGroup{Class: 0, UpperBound: upper}
	lbs, err := MineLowerBounds(context.Background(), d, g, 10, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lbs) != 2 {
		t.Fatalf("got %d lower bounds, want 2: %v", len(lbs), lbs)
	}
	wantA := bitset.FromIndices(d.NumGenes(), gi["a"])
	wantBC := bitset.FromIndices(d.NumGenes(), gi["b"], gi["c"])
	if !((lbs[0].Equal(wantA) && lbs[1].Equal(wantBC)) || (lbs[0].Equal(wantBC) && lbs[1].Equal(wantA))) {
		t.Errorf("lower bounds = %v, %v; want {a} and {b,c}", lbs[0], lbs[1])
	}
}

func TestMineLowerBoundsProperties(t *testing.T) {
	// For random data and every mined group: each lower bound has the same
	// full support set as the upper bound, and no proper subset does.
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		d := randomBool(r, 7, 7, 2)
		res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.3, K: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			target := rowsContaining(d, g.UpperBound)
			lbs, err := MineLowerBounds(context.Background(), d, g, 1000, Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if len(lbs) == 0 {
				t.Fatalf("trial %d: group %v has no lower bounds (upper bound itself generates)",
					trial, g.UpperBound.Indices())
			}
			for _, lb := range lbs {
				if !lb.SubsetOf(g.UpperBound) {
					t.Fatalf("lower bound %v not within upper bound %v", lb.Indices(), g.UpperBound.Indices())
				}
				if !rowsContaining(d, lb).Equal(target) {
					t.Fatalf("trial %d: lower bound %v support differs from upper bound %v",
						trial, lb.Indices(), g.UpperBound.Indices())
				}
				// Minimality: dropping any gene enlarges the support set.
				lb.ForEach(func(gene int) bool {
					sub := lb.Clone()
					sub.Remove(gene)
					if !sub.IsEmpty() && rowsContaining(d, sub).Equal(target) {
						t.Fatalf("trial %d: lower bound %v not minimal (drop g%d)",
							trial, lb.Indices(), gene+1)
					}
					return true
				})
			}
		}
	}
}

func TestMineLowerBoundsExhaustiveVsBruteForce(t *testing.T) {
	// With unlimited nl, the BFS must find exactly the minimal generators a
	// brute-force subset scan finds.
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 12; trial++ {
		d := randomBool(r, 8, 9, 2)
		res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.3, K: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			genes := g.UpperBound.Indices()
			if len(genes) > 12 {
				continue // brute force too large
			}
			target := rowsContaining(d, g.UpperBound)
			// Brute force: all non-empty subsets with support == target,
			// minimal by inclusion.
			var gens []*bitset.Set
			for mask := 1; mask < 1<<len(genes); mask++ {
				sub := bitset.New(d.NumGenes())
				for b, gi := range genes {
					if mask&(1<<b) != 0 {
						sub.Add(gi)
					}
				}
				if rowsContaining(d, sub).Equal(target) {
					minimal := true
					sub.ForEach(func(gi int) bool {
						smaller := sub.Clone()
						smaller.Remove(gi)
						if !smaller.IsEmpty() && rowsContaining(d, smaller).Equal(target) {
							minimal = false
						}
						return minimal
					})
					if minimal {
						gens = append(gens, sub)
					}
				}
			}
			got, err := MineLowerBounds(context.Background(), d, g, 1<<30, Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(gens) {
				t.Fatalf("trial %d upper bound %v: BFS found %d generators, brute force %d",
					trial, genes, len(got), len(gens))
			}
			want := map[string]bool{}
			for _, s := range gens {
				want[s.Key()] = true
			}
			for _, s := range got {
				if !want[s.Key()] {
					t.Fatalf("trial %d: BFS produced non-minimal generator %v", trial, s.Indices())
				}
			}
		}
	}
}

func TestMineLowerBoundsNLLimit(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	d := randomBool(r, 8, 10, 2)
	res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: 0.3, K: 10})
	if err != nil || len(res.Groups) == 0 {
		t.Skip("no groups to test")
	}
	lbs, err := MineLowerBounds(context.Background(), d, res.Groups[0], 1, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lbs) > 1 {
		t.Errorf("nl=1 returned %d bounds", len(lbs))
	}
	if lbs2, _ := MineLowerBounds(context.Background(), d, res.Groups[0], 0, Budget{}); lbs2 != nil {
		t.Error("nl=0 should return nothing")
	}
}

func TestMineLowerBoundsBudget(t *testing.T) {
	// An upper bound with many genes and an expired deadline must DNF.
	r := rand.New(rand.NewSource(59))
	d := randomBool(r, 30, 40, 2)
	upper := bitset.New(d.NumGenes())
	upper.Fill()
	g := &RuleGroup{Class: 0, UpperBound: upper}
	_, err := MineLowerBounds(context.Background(), d, g, 1<<30, Budget{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("expected ErrBudgetExceeded, got %v", err)
	}
}

func geneIndex(d *dataset.Bool) map[string]int {
	gi := map[string]int{}
	for j, g := range d.GeneNames {
		gi[g] = j
	}
	return gi
}

func randomBool(r *rand.Rand, samples, genes, classes int) *dataset.Bool {
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
		if i >= classes {
			cl = r.Intn(classes)
		}
		row := bitset.New(genes)
		for g := 0; g < genes; g++ {
			if r.Intn(2) == 0 {
				row.Add(g)
			}
		}
		d.Classes = append(d.Classes, cl)
		d.Rows = append(d.Rows, row)
	}
	return d
}
