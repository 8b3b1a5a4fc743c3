package carminer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/synth"
)

// closureRowScan is the Top-k closure as the miner computed it before it
// kept per-gene row columns, kept as the oracle: it tests the itemset
// against every training row and returns the class rows containing it
// (sample universe) and how many rows of any class contain it.
func closureRowScan(d *dataset.Bool, ci int, itemset *bitset.Set) (*bitset.Set, int) {
	classSet := bitset.New(d.NumSamples())
	total := 0
	for i, row := range d.Rows {
		if itemset.SubsetOf(row) {
			total++
			if d.Classes[i] == ci {
				classSet.Add(i)
			}
		}
	}
	return classSet, total
}

// closure sets classSet to the class rows containing itemset and returns
// the training rows of any class containing it, the miner's scratch set,
// with the kernels dfs computes them with (against an empty parent).
func (m *topkMiner) closure(itemset, classSet *bitset.Set) *bitset.Set {
	rows := m.rows.IntersectColumns(itemset, m.cols)
	rows.IntersectMinDifference(classSet, m.classMask, m.rootRows)
	return rows
}

// smallTraining returns a synth small-scale profile's training split at
// frac, drawn with RandomFractionSplit seed 1 and discretized as the
// studies do.
func smallTraining(name string, frac float64) (*dataset.Bool, error) {
	p, err := synth.ProfileByName(name, synth.Small)
	if err != nil {
		return nil, err
	}
	c, err := p.Generate()
	if err != nil {
		return nil, err
	}
	sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(1)), c.NumSamples(), frac)
	if err != nil {
		return nil, err
	}
	train := c.Subset(sp.Train)
	m, err := discretize.Fit(train)
	if err != nil {
		return nil, err
	}
	return m.Transform(train)
}

var (
	ocOnce sync.Once
	ocData *dataset.Bool
	ocErr  error
)

// ocTraining returns the OC small 40% training split: the split shape
// whose Top-k row enumeration is most of a study-oc run.
func ocTraining(tb testing.TB) *dataset.Bool {
	tb.Helper()
	ocOnce.Do(func() { ocData, ocErr = smallTraining("OC", 0.4) })
	if ocErr != nil {
		tb.Fatal(ocErr)
	}
	return ocData
}

// rcbtTopK is RCBT's default Top-k configuration (minsup 0.7, k 10).
var rcbtTopK = TopKConfig{MinSupport: 0.7, K: 10}

// topkRun is one Top-k run's outcome: its error, its carminer.topk.*
// counters as read from the registry, and a digest of what it mined.
type topkRun struct {
	err    error
	count  topkCounts
	digest string
}

var errTopKFault = errors.New("injected Top-k stop")

// runTopK mines class ci with fresh counters. With skip ≥ 0 it arms the
// carminer.dfs fault site to fire on the stop poll after the first skip.
func runTopK(d *dataset.Bool, ci int, cfg TopKConfig, skip int) topkRun {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	if skip >= 0 {
		in := fault.NewInjector(1)
		in.Set("carminer.dfs", fault.Rule{Prob: 1, SkipHits: skip, Err: errTopKFault})
		fault.Enable(in)
		defer fault.Disable()
	}
	res, err := TopKCoveringRuleGroups(context.Background(), d, ci, cfg)
	c := func(name string) int64 { return reg.Counter("carminer.topk." + name).Value() }
	return topkRun{
		err: err,
		count: topkCounts{
			nodes:        c("nodes"),
			revisitSkips: c("revisit_skips"),
			prunedSup:    c("pruned_support"),
			prunedConf:   c("pruned_confidence"),
			floorPrunes:  c("floor_prunes"),
			floorSkips:   c("floor_skips"),
			groups:       c("groups"),
		},
		digest: resultDigest(res),
	}
}

// resultDigest hashes a Top-k result's groups in order and every class
// row's top-k list, so a pin catches any change in what was mined.
func resultDigest(res *TopKResult) string {
	h := sha256.New()
	write := func(g *RuleGroup) {
		fmt.Fprintf(h, "%d %v %v %d %d %x;", g.Class, g.UpperBound, g.ClassRows,
			g.Support, g.TotalRows, math.Float64bits(g.Confidence))
	}
	for _, g := range res.Groups {
		write(g)
	}
	rows := make([]int, 0, len(res.PerRow))
	for r := range res.PerRow {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	for _, r := range rows {
		fmt.Fprintf(h, "row %d:", r)
		for _, g := range res.PerRow[r] {
			write(g)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestTopKClosureMatchesRowScan pins the miner's column closure to the row
// scan it replaced. On random matrices whose sample and gene counts sit on
// either side of the 64-bit word boundary, it checks the empty and full
// itemsets, every single gene and random itemsets; on an OC-small and a
// PC-small mining run, every returned group's ClassRows and TotalRows must
// equal the row scan over its UpperBound.
func TestTopKClosureMatchesRowScan(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 130}
	r := rand.New(rand.NewSource(89))
	for _, samples := range sizes {
		for _, genes := range sizes {
			d := randomBool(r, samples, genes, 2)
			for ci := 0; ci < 2 && ci < samples; ci++ {
				var classRows []int
				for i, cl := range d.Classes {
					if cl == ci {
						classRows = append(classRows, i)
					}
				}
				m := newTopkMiner(context.Background(), d, ci, classRows, 1, rcbtTopK)
				itemsets := []*bitset.Set{bitset.New(genes), m.root}
				for g := 0; g < genes; g++ {
					itemsets = append(itemsets, bitset.FromIndices(genes, g))
				}
				for k := 0; k < 40; k++ {
					s := bitset.New(genes)
					for g, n := 0, 1+r.Intn(6); g < n; g++ {
						s.Add(r.Intn(genes))
					}
					itemsets = append(itemsets, s)
				}
				classSet := bitset.New(samples)
				for _, s := range itemsets {
					total := m.closure(s, classSet).Count()
					want, wantTotal := closureRowScan(d, ci, s)
					if total != wantTotal || !classSet.Equal(want) {
						t.Fatalf("%d×%d class %d itemset %v: closure %v/%d, row scan %v/%d",
							samples, genes, ci, s, classSet, total, want, wantTotal)
					}
				}
			}
		}
	}

	pc, pcGroups := pcTraining(t)
	oc := ocTraining(t)
	for ci := 0; ci < oc.NumClasses(); ci++ {
		res, err := TopKCoveringRuleGroups(context.Background(), oc, ci, rcbtTopK)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupsRowScan(t, "OC", oc, res.Groups)
	}
	for _, groups := range pcGroups {
		checkGroupsRowScan(t, "PC", pc, groups)
	}
}

func checkGroupsRowScan(t *testing.T, name string, d *dataset.Bool, groups []*RuleGroup) {
	t.Helper()
	if len(groups) == 0 {
		t.Fatalf("%s: no groups mined", name)
	}
	for _, g := range groups {
		want, total := closureRowScan(d, g.Class, g.UpperBound)
		if !g.ClassRows.Equal(want) || g.TotalRows != total {
			t.Fatalf("%s class %d group %v: rows %v/%d, row scan %v/%d",
				name, g.Class, g.UpperBound, g.ClassRows, g.TotalRows, want, total)
		}
	}
}

// refMiner is the Top-k search as the miner ran it before the
// canonical-parent test, kept as the oracle. A states map remembers every
// closed node reached, keyed by class support set, with the lowest index
// it has been expanded from; a revisit from an earlier index re-expands
// only the children that expansion skipped, and any other revisit backs
// out. It keeps the per-row forms the miner replaced with word-level walks
// (a Contains test per later class row for the children, and a per-row
// remaining count in pruned), shares the miner's closure, record,
// confidence prune and result assembly, and polls only the node budget.
type refMiner struct {
	*topkMiner
	states map[string]int
}

// topKReference mines class ci of d with the reference search.
func topKReference(d *dataset.Bool, ci int, cfg TopKConfig) topkRun {
	m, err := minerFor(context.Background(), d, ci, cfg)
	if err != nil {
		return topkRun{err: err}
	}
	ref := &refMiner{topkMiner: m, states: map[string]int{}}
	for idx := range m.classRows {
		if err = ref.dfs(m.root, idx, 0); err != nil {
			break
		}
	}
	return topkRun{err: err, count: m.count, digest: resultDigest(m.result())}
}

func (m *refMiner) dfs(itemset *bitset.Set, idx, level int) error {
	m.count.nodes++
	if m.count.nodes&63 == 1 && m.maxNodes > 0 && m.count.nodes > int64(m.maxNodes) {
		return ErrBudgetExceeded
	}
	sc := &m.depth[level]
	next := itemset.IntersectInto(sc.next, m.d.Rows[m.classRows[idx]])
	if next.IsEmpty() {
		return nil
	}
	classSet := sc.classSet
	total := m.closure(next, classSet).Count()
	support := classSet.Count()
	key := classSet.Key()
	explored, revisit := m.states[key]
	if revisit {
		if idx >= explored {
			m.count.revisitSkips++
			return nil // subtree already covered from an earlier index
		}
	} else {
		explored = len(m.classRows)
		m.states[key] = explored
		if support >= m.minSup {
			m.record(next, classSet, support, total)
		}
	}
	if m.pruned(classSet, idx, support, total) {
		return nil // covers only improve, so the prune holds for revisits
	}
	m.states[key] = idx
	for j := idx + 1; j <= explored && j < len(m.classRows); j++ {
		if classSet.Contains(m.classRows[j]) {
			continue
		}
		if err := m.dfs(next, j, level+1); err != nil {
			return err
		}
	}
	return nil
}

// pruned is the miner's prune with remaining counted one class row at a
// time.
func (m *refMiner) pruned(classSet *bitset.Set, idx, support, total int) bool {
	if support < m.effMinSup {
		remaining := 0
		for j := idx + 1; j < len(m.classRows); j++ {
			if !classSet.Contains(m.classRows[j]) {
				remaining++
			}
		}
		capacity := support + remaining
		switch {
		case capacity < m.minSup:
			m.count.prunedSup++
			return true
		case capacity < m.effMinSup:
			m.count.floorPrunes++
			return true
		}
	}
	if m.prunable(total - support) {
		m.count.prunedConf++
		return true
	}
	return false
}

// TestTopKMatchesReference diffs the canonical-parent search against the
// states map search it replaced: the same groups and per-row lists, the
// same nodes and groups counters, and the same stop. The arrivals the map
// search pruned again are revisit skips now, so revisit_skips +
// pruned_support + pruned_confidence + floor_prunes must agree too, and
// the canonical search may only weigh fewer groups (floor_skips). Since
// the reference keeps the per-row child loop and remaining count, the diff
// also checks the miner's word walk and popcount forms of both. Shapes:
// random matrices on either side of the 64-bit word boundary, one with a
// class row holding every gene, one with duplicated class rows, minsup
// 0–0.7 and k 1–10, and the OC and PC small 40% and 60% splits.
func TestTopKMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	type shape struct {
		name string
		d    *dataset.Bool
	}
	var shapes []shape
	for i := 0; i < 12; i++ {
		d := randomBool(r, 7+r.Intn(59), 7+r.Intn(59), 2)
		shapes = append(shapes, shape{fmt.Sprintf("random %d×%d", d.NumSamples(), d.NumGenes()), d})
	}
	full := randomBool(r, 30, 40, 2)
	full.Rows[2].Fill()
	shapes = append(shapes, shape{"full class row", full})
	dup := randomBool(r, 40, 50, 2)
	for _, i := range []int{0, 2, 4} {
		dup.Rows = append(dup.Rows, dup.Rows[i].Clone())
		dup.Classes = append(dup.Classes, dup.Classes[i])
	}
	shapes = append(shapes, shape{"duplicated class rows", dup})
	cfgs := []TopKConfig{
		{MinSupport: 0, K: 1}, {MinSupport: 0.1, K: 10}, {MinSupport: 0.2, K: 3},
		{MinSupport: 0.3, K: 5}, {MinSupport: 0.5, K: 2}, {MinSupport: 0.7, K: 10},
	}
	for _, sh := range shapes {
		for ci := 0; ci < 2; ci++ {
			for _, cfg := range cfgs {
				checkMatchesReference(t, fmt.Sprintf("%s class %d %+v", sh.name, ci, cfg), sh.d, ci, cfg)
			}
		}
	}
	budget := rcbtTopK
	budget.MaxNodes = 5_000
	for _, name := range []string{"OC", "PC"} {
		for _, frac := range []float64{0.4, 0.6} {
			d, err := smallTraining(name, frac)
			if err != nil {
				t.Fatal(err)
			}
			for ci := 0; ci < d.NumClasses(); ci++ {
				for _, cfg := range []TopKConfig{rcbtTopK, budget} {
					checkMatchesReference(t, fmt.Sprintf("%s %.0f%% class %d MaxNodes %d", name, 100*frac, ci, cfg.MaxNodes), d, ci, cfg)
				}
			}
		}
	}
}

func checkMatchesReference(t *testing.T, name string, d *dataset.Bool, ci int, cfg TopKConfig) {
	t.Helper()
	want := topKReference(d, ci, cfg)
	got := runTopK(d, ci, cfg, -1)
	cut := func(c topkCounts) int64 { return c.revisitSkips + c.prunedSup + c.prunedConf + c.floorPrunes }
	switch {
	case got.err != want.err:
		t.Errorf("%s: err %v, reference %v", name, got.err, want.err)
	case got.digest != want.digest:
		t.Errorf("%s: result digest %s, reference %s", name, got.digest, want.digest)
	case got.count.nodes != want.count.nodes || got.count.groups != want.count.groups:
		t.Errorf("%s: nodes %d groups %d, reference %d and %d",
			name, got.count.nodes, got.count.groups, want.count.nodes, want.count.groups)
	case cut(got.count) != cut(want.count) || got.count.floorSkips > want.count.floorSkips:
		t.Errorf("%s: counters %+v, reference %+v", name, got.count, want.count)
	}
}

// TestTopKSearchPinned pins the search itself on the OC small 40% split:
// every carminer.topk.* counter and a digest of the groups and per-row
// lists, for both classes. Nodes, groups and digests are the values the
// miner read before the column closure and before the canonical-parent
// test. That test counts as revisit skips the arrivals the states map
// search pruned again (revisit_skips + pruned_support + pruned_confidence
// is unchanged), and it drops the floor skips of groups that search
// weighed at a first arrival that was not canonical. Stops by the
// carminer.dfs fault site and by MaxNodes must leave the same counters
// too, so the counts are added to the registry on every return.
func TestTopKSearchPinned(t *testing.T) {
	d := ocTraining(t)
	budget := rcbtTopK
	budget.MaxNodes = 100_000
	cases := []struct {
		name string
		ci   int
		cfg  TopKConfig
		skip int
		err  error
		want topkCounts
		dig  string
	}{
		{"class 0", 0, rcbtTopK, -1, nil,
			topkCounts{nodes: 249854, revisitSkips: 227796, prunedSup: 15264, prunedConf: 20, floorSkips: 3, groups: 80},
			"8969660fe413a932"},
		{"class 1", 1, rcbtTopK, -1, nil,
			topkCounts{nodes: 12358, revisitSkips: 8936, prunedSup: 2261, prunedConf: 6, floorSkips: 7, groups: 61},
			"8957d64f2ae52535"},
		{"fault skip 0", 0, rcbtTopK, 0, errTopKFault,
			topkCounts{nodes: 1},
			"e3b0c44298fc1c14"},
		{"fault skip 1", 0, rcbtTopK, 1, errTopKFault,
			topkCounts{nodes: 65, revisitSkips: 49, groups: 7},
			"72614b5655654efe"},
		{"fault skip 7", 0, rcbtTopK, 7, errTopKFault,
			topkCounts{nodes: 449, revisitSkips: 404, groups: 28},
			"2e9b55f689e8e111"},
		{"MaxNodes", 0, budget, -1, ErrBudgetExceeded,
			topkCounts{nodes: 100033, revisitSkips: 91565, prunedSup: 5104, prunedConf: 1, floorSkips: 3, groups: 79},
			"e502f890cf426852"},
	}
	for _, c := range cases {
		got := runTopK(d, c.ci, c.cfg, c.skip)
		if got.err != c.err {
			t.Errorf("%s: err %v, want %v", c.name, got.err, c.err)
		}
		if got.count != c.want {
			t.Errorf("%s: counters %+v, want %+v", c.name, got.count, c.want)
		}
		if got.digest != c.dig {
			t.Errorf("%s: result digest %s, want %s", c.name, got.digest, c.dig)
		}
	}
}
