package carminer

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
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

// TestTopKSmallKMatchesBruteForce checks the covering prune where it fires:
// at k = 1–5 every class row's top-k list, and the groups they hold, must
// equal a brute-force selection, each row's k best by coverLess among every
// closed group with support ≥ minsup.
func TestTopKSmallKMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 24; trial++ {
		d := randomBool(r, 8+r.Intn(17), 6+r.Intn(70), 2)
		for _, minSup := range []float64{0, 0.3, 0.5} {
			closed := bruteForceClosed(d, 0, minSup)
			for k := 1; k <= 5; k++ {
				res, err := TopKCoveringRuleGroups(context.Background(), d, 0, TopKConfig{MinSupport: minSup, K: k})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := resultDigest(res), resultDigest(bruteForceTopK(d, 0, k, closed)); got != want {
					t.Fatalf("%d×%d trial %d minsup %v k %d: digest %s, brute force %s",
						d.NumSamples(), d.NumGenes(), trial, minSup, k, got, want)
				}
			}
		}
	}
}

// bruteForceTopK keeps each class-ci row's k best closed groups by
// coverLess, and the groups some row keeps, best first.
func bruteForceTopK(d *dataset.Bool, ci, k int, closed map[string]*RuleGroup) *TopKResult {
	all := make([]*RuleGroup, 0, len(closed))
	for _, g := range closed {
		g.key = g.ClassRows.Key()
		all = append(all, g)
	}
	sort.Slice(all, func(i, j int) bool { return coverLess(all[i], all[j]) })
	res := &TopKResult{Class: ci, PerRow: map[int][]*RuleGroup{}}
	kept := map[*RuleGroup]bool{}
	for row, cl := range d.Classes {
		if cl != ci {
			continue
		}
		for _, g := range all {
			if len(res.PerRow[row]) < k && g.ClassRows.Contains(row) {
				res.PerRow[row] = append(res.PerRow[row], g)
				kept[g] = true
			}
		}
	}
	for _, g := range all {
		if kept[g] {
			res.Groups = append(res.Groups, g)
		}
	}
	return res
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

// TestDFSSteadyStateAllocs pins the hot path: with the scratch stack warm,
// neither an arrival the canonical-parent test rejects nor a canonical node
// whose group no row admits allocates.
func TestDFSSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	d := randomBool(r, 16, 24, 2)
	// A copy of class row 0 as the last class row: row 0's closure already
	// holds it, so its root arrival is not canonical.
	d.Rows = append(d.Rows, d.Rows[0].Clone())
	d.Classes = append(d.Classes, 0)
	var classRows []int
	for i, cl := range d.Classes {
		if cl == 0 {
			classRows = append(classRows, i)
		}
	}
	m := newTopkMiner(context.Background(), d, 0, classRows, 1, TopKConfig{K: 4})
	if err := m.run(); err != nil {
		t.Fatal(err)
	}
	dfs := func(idx int) func() {
		return func() {
			if err := m.dfs(m.root, m.rootRows, idx, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	skips := m.count.revisitSkips
	if n := testing.AllocsPerRun(50, dfs(len(classRows)-1)); n != 0 {
		t.Errorf("non-canonical arrival allocates %v times, want 0", n)
	}
	if m.count.revisitSkips == skips {
		t.Fatal("the copied row's root arrival passed the canonical test")
	}
	// Fill every row's list with a group nothing beats (full confidence,
	// every class row, a key below any set's): root 0 is canonical, its
	// group is weighed and refused, and the confidence prune stops it.
	wall := &RuleGroup{Confidence: 1, Support: len(classRows)}
	for pos := range m.covers {
		m.covers[pos] = []*RuleGroup{wall, wall, wall, wall}
	}
	m.fullRows, m.floorDirty = len(m.covers), true
	refused, groups := m.count.floorSkips, m.count.groups
	if n := testing.AllocsPerRun(50, dfs(0)); n != 0 {
		t.Errorf("canonical node with a refused group allocates %v times, want 0", n)
	}
	if m.count.floorSkips == refused || m.count.groups != groups {
		t.Fatalf("root 0: floor skips %d → %d, groups %d → %d; want the group refused",
			refused, m.count.floorSkips, groups, m.count.groups)
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

// TestLowerBoundsNoGenes: a search over no genes finds no bound, whether
// LowerBounds gets no columns or MineLowerBounds a group whose upper bound
// is empty. The search has no gene-mask words then, so it must not derive
// its bound count from them.
func TestLowerBoundsNoGenes(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	d := randomBool(r, 10, 12, 2)
	for _, nl := range []int{1, 20} {
		all := bitset.New(d.NumSamples())
		all.Fill()
		if got := LowerBounds(d.NumGenes(), nil, nil, all, nl); len(got) != 0 {
			t.Errorf("nl=%d: LowerBounds over no genes returned %d bounds", nl, len(got))
		}
		g := &RuleGroup{Class: 0, UpperBound: bitset.New(d.NumGenes())}
		got, err := MineLowerBounds(context.Background(), d, g, nl, Budget{})
		if err != nil || len(got) != 0 {
			t.Errorf("nl=%d: MineLowerBounds on an empty upper bound returned %d bounds, err %v", nl, len(got), err)
		}
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
