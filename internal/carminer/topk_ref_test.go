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
			slackPrunes:  c("slack_prunes"),
			sketchSkips:  c("sketch_skips"),
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
					total := m.closure(s, classSet)
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

// TestTopKSearchPinned pins the search itself on the OC small 40% split:
// every carminer.topk.* counter and a digest of the groups and per-row
// lists, for both classes, exact and approximate, at the values the miner
// read before the column closure. Stops by the carminer.dfs fault site and
// by MaxNodes must leave the same counters too, so the counts are added to
// the registry on every return.
func TestTopKSearchPinned(t *testing.T) {
	d := ocTraining(t)
	approx := rcbtTopK
	approx.Approx = ApproxConfig{Epsilon: 0.1}
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
			topkCounts{nodes: 249854, revisitSkips: 181657, prunedSup: 61253, prunedConf: 170, floorSkips: 3, groups: 80},
			"8969660fe413a932"},
		{"class 1", 1, rcbtTopK, -1, nil,
			topkCounts{nodes: 12358, revisitSkips: 6396, prunedSup: 4700, prunedConf: 107, floorSkips: 8, groups: 61},
			"8957d64f2ae52535"},
		{"class 0 approx", 0, approx, -1, nil,
			topkCounts{nodes: 100666, revisitSkips: 61780, prunedSup: 26593, prunedConf: 14, floorSkips: 3, groups: 79, slackPrunes: 7726, sketchSkips: 2191},
			"df48fa6815e3cfb0"},
		{"class 1 approx", 1, approx, -1, nil,
			topkCounts{nodes: 5244, revisitSkips: 2123, prunedSup: 1814, prunedConf: 42, floorSkips: 7, groups: 58, slackPrunes: 673, sketchSkips: 160},
			"41b1ff92ca2a824c"},
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
			topkCounts{nodes: 100033, revisitSkips: 79682, prunedSup: 16978, prunedConf: 10, floorSkips: 3, groups: 79},
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
