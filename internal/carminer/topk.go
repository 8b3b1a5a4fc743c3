// Package carminer implements the conjunctive-association-rule mining
// substrate the BSTC paper benchmarks against: the Top-k covering rule
// groups miner (Cong, Tan, Tung, Xu — SIGMOD'05) and the lower-bound miner
// RCBT depends on.
//
// Top-k performs a pruned row enumeration over the training sample subset
// space: every node of the search tree is a closed antecedent itemset (a
// rule group upper bound) obtained by intersecting a subset of class rows.
// The search is exponential in the number of class rows in the worst case —
// the precise scalability wall the BSTC paper measures in Tables 4 and 6 —
// so every entry point accepts a Budget that turns long runs into explicit
// DNF results instead of unbounded stalls.
//
// A closed node can be reached through several generating row sequences,
// and the miner keeps no map of the nodes it has seen: it expands a node
// only from its canonical parent, the one whose extension row is the lowest
// class row the node's closure gains over the parent's. This is LCM's
// prefix-preserving closure extension (Uno, Kiyomi, Arimura, FIMI'04)
// applied to rows, as CARPENTER (Pan et al., KDD'03) enumerates them. Every
// closed node has exactly one canonical parent, and the depth-first order
// reaches it there first, so the search visits the same nodes in the same
// order as one that remembers every node it has expanded. Memory is
// O(depth): a per-depth scratch stack for the running intersection and its
// class support set (depth is bounded by the class-row count), plus the
// groups some row's top-k keeps. The hot path allocates only when it
// materializes such a group.
//
// A node's closure, the training rows containing its itemset, is the AND of
// its genes' row columns. The miner transposes the training rows into
// per-gene row sets once and tabulates them by gene byte (a
// bitset.ColumnTable: each of a byte's 256 gene subsets has its AND
// stored), so each node costs one row-set AND per non-zero byte of its
// itemset instead of a subset test against every training row. The rest of
// a node's step is one pass over each kind of word: its itemset is ANDed
// and tested for emptiness together, and its closure's class rows are
// masked out together with the canonical-parent test, which rejects most
// arrivals. Children and the capacity prune's remaining rows come from
// word-level walks and counts over the class rows outside the closure. The
// search counters are counted in the miner and added to the shared
// registry at the stop poll and when the run returns, so concurrent miners
// do not contend on its atomics at every node.
package carminer

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/fault"
	"bstc/internal/obs"
)

// ErrBudgetExceeded reports that mining hit its deadline; partial results
// accompany it so harnesses can still inspect what was found.
var ErrBudgetExceeded = errors.New("carminer: time budget exceeded")

// Budget bounds a mining run. The zero Budget is unlimited.
type Budget struct {
	// Deadline, when non-zero, aborts the search once passed.
	Deadline time.Time
}

// Expired reports whether the budget deadline has passed. Time is read
// through obs.Now so deterministic-clock tests cover budgeted runs too; a
// zero Deadline never touches the clock.
func (b Budget) Expired() bool {
	if b.Deadline.IsZero() {
		return false
	}
	met.deadlinePolls.Inc()
	if obs.Now().After(b.Deadline) {
		met.deadlineExpired.Inc()
		return true
	}
	return false
}

// Check is the amortized stop poll of every mining hot loop: it reports
// ErrBudgetExceeded once the budget deadline passes, the typed
// fault.ErrDeadline / fault.ErrCanceled once ctx is done, and nil while the
// run may continue. A nil ctx and zero budget cost a nil check each.
func (b Budget) Check(ctx context.Context) error {
	if b.Expired() {
		return ErrBudgetExceeded
	}
	if err := fault.CtxErr(ctx); err != nil {
		met.ctxStops.Inc()
		return err
	}
	return nil
}

// RuleGroup is an interesting rule group's upper bound: the maximal (closed)
// antecedent itemset shared by every rule in the group, with its support and
// confidence for the target class.
type RuleGroup struct {
	Class int
	// UpperBound is the closed antecedent itemset (gene universe).
	UpperBound *bitset.Set
	// ClassRows are the class training rows containing the upper bound
	// (sample universe).
	ClassRows *bitset.Set
	// Support is |ClassRows|.
	Support int
	// TotalRows counts all training rows (any class) containing the upper
	// bound, so Confidence = Support / TotalRows.
	TotalRows  int
	Confidence float64
	// LowerBounds holds the group's minimal generators once mined (nl of
	// them at most); nil until MineLowerBounds runs.
	LowerBounds []*bitset.Set

	// key is the ClassRows bitset key. A closed itemset is exactly the
	// intersection of the class rows containing it, so key identifies the
	// group: equal keys imply equal groups. It doubles as the canonical
	// tie-break of coverLess, making every ranking a strict total order.
	key string
}

// coverLess is the canonical strict total order on rule groups: confidence
// descending, support descending, class-support key ascending. Distinct
// groups have distinct keys, so no two groups compare equal — which is what
// makes top-k lists and the sorted result independent of discovery order.
func coverLess(a, b *RuleGroup) bool {
	if a.Confidence != b.Confidence {
		return a.Confidence > b.Confidence
	}
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	return a.key < b.key
}

// TopKConfig mirrors the parameters of the Top-k executable used in the
// paper's §6: minimum support as a fraction of the class rows (the paper's
// 0.7) and the number of covering rule groups per row (the paper's k=10).
type TopKConfig struct {
	MinSupport float64
	K          int
	Budget     Budget
	// MaxNodes, when positive, bounds the enumeration nodes the miner may
	// visit; exceeding it stops the run with ErrBudgetExceeded and partial
	// results. It is checked at the stop poll, every 64 nodes, so a run can
	// visit up to 63 nodes past it before the poll stops it (a 100,000-node
	// budget on the OC small 40% split stops at 100,033). Unlike the
	// wall-clock Deadline this budget is deterministic: the same
	// configuration always stops at the same node.
	MaxNodes int

	// disableFloors turns off the dynamic-floor machinery so package tests
	// can diff its output against the reference pruning. Not exported: the
	// floors are exact-safe, so production runs always want them.
	disableFloors bool
}

// TopKResult is the output of TopKCoveringRuleGroups: the deduplicated
// union of mined rule groups plus, per class row, that row's covering top-k
// list (best first) — the structure RCBT's main/standby classifier assembly
// consumes.
type TopKResult struct {
	Class  int
	Groups []*RuleGroup
	// PerRow maps each class row index to its top-k covering groups,
	// pointers into Groups.
	PerRow map[int][]*RuleGroup
}

// TopKCoveringRuleGroups mines, for every class-ci training row, the k most
// confident rule groups covering that row with support ≥ MinSupport·|C_i|.
// When the budget expires (or ctx stops the run) it returns what was found
// so far together with ErrBudgetExceeded (or the typed fault.ErrDeadline /
// fault.ErrCanceled). The stop condition is polled at an amortized cadence
// in the enumeration hot loop, so the miner returns within one check
// interval of the deadline. A nil ctx is treated as context.Background().
func TopKCoveringRuleGroups(ctx context.Context, d *dataset.Bool, ci int, cfg TopKConfig) (*TopKResult, error) {
	m, err := minerFor(ctx, d, ci, cfg)
	if err != nil {
		return nil, err
	}
	err = m.run()
	return m.result(), err
}

// minerFor validates cfg and builds the miner of class ci, with the
// minimum support rounded up to whole class rows.
func minerFor(ctx context.Context, d *dataset.Bool, ci int, cfg TopKConfig) (*topkMiner, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("carminer: k must be positive, got %d", cfg.K)
	}
	if cfg.MinSupport < 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("carminer: minimum support %v outside [0,1]", cfg.MinSupport)
	}
	var classRows []int
	for i, cl := range d.Classes {
		if cl == ci {
			classRows = append(classRows, i)
		}
	}
	if len(classRows) == 0 {
		return nil, fmt.Errorf("carminer: class %d has no rows", ci)
	}
	minSup := int(cfg.MinSupport*float64(len(classRows)) + 0.999999)
	if minSup < 1 {
		minSup = 1
	}
	return newTopkMiner(ctx, d, ci, classRows, minSup, cfg), nil
}

type topkMiner struct {
	d         *dataset.Bool
	ci        int
	classRows []int
	minSup    int
	k         int
	budget    Budget
	maxNodes  int
	ctx       context.Context

	// count is the run's search counters and flushed the part of them
	// already added to the registry (see flushCounts).
	count, flushed topkCounts

	// cols tabulates the training rows holding each gene and classMask is
	// the rows of class ci; rows is a node's closure (see dfs), read
	// before dfs recurses, so one per miner is enough.
	cols      *bitset.ColumnTable
	classMask *bitset.Set
	rows      *bitset.Set

	// covers[pos] is the current best-k groups of class row classRows[pos],
	// best first. Indexing by class-row position keeps the per-node prune
	// loop and every offer off map lookups.
	covers [][]*RuleGroup
	// rowPos maps a dataset row index to its class-row position, -1 for
	// rows outside the class.
	rowPos []int32

	// Dynamic-floor state. fullRows counts class rows whose top-k list is
	// full; once all are, (floorConf, floorSup) caches the weakest k-th
	// entry across rows — the floor every new group must beat somewhere —
	// recomputed lazily when floorDirty. effMinSup starts at minSup and is
	// raised to the weakest floor's support once every floor demands full
	// confidence, which makes the capacity prune strictly stronger while
	// provably preserving the output (see refreshFloor). noFloors reverts
	// prunable to the reference O(rows) scan for differential tests.
	effMinSup  int
	fullRows   int
	floorDirty bool
	floorConf  float64
	floorSup   int
	noFloors   bool

	// root is the synthetic root itemset (the full gene set) and rootRows
	// its class support set, taken as empty; depth[l] holds level l's
	// running intersection and class support set, reused across the whole
	// enumeration so dfs itself never allocates bitsets. keyBuf holds the
	// class-support key of the group record is weighing.
	root     *bitset.Set
	rootRows *bitset.Set
	depth    []levelScratch
	keyBuf   []byte
}

type levelScratch struct {
	next     *bitset.Set // running intersection (gene universe)
	classSet *bitset.Set // its class support set (sample universe)
}

// topkCounts are a run's carminer.topk.* counters.
type topkCounts struct {
	nodes, revisitSkips, prunedSup, prunedConf, floorPrunes, floorSkips, groups int64
}

func newTopkMiner(ctx context.Context, d *dataset.Bool, ci int, classRows []int, minSup int, cfg TopKConfig) *topkMiner {
	m := &topkMiner{
		d:         d,
		ci:        ci,
		classRows: classRows,
		minSup:    minSup,
		k:         cfg.K,
		budget:    cfg.Budget,
		maxNodes:  cfg.MaxNodes,
		ctx:       ctx,
		cols:      bitset.NewColumnTable(d.NumSamples(), bitset.Transpose(d.Rows, d.NumGenes())),
		classMask: bitset.New(d.NumSamples()),
		rows:      bitset.New(d.NumSamples()),
		covers:    make([][]*RuleGroup, len(classRows)),
		rowPos:    make([]int32, d.NumSamples()),
		effMinSup: minSup,
		noFloors:  cfg.disableFloors,
		root:      bitset.New(d.NumGenes()),
		rootRows:  bitset.New(d.NumSamples()),
		depth:     make([]levelScratch, len(classRows)),
		keyBuf:    make([]byte, 0, (d.NumSamples()+7)/8+8),
	}
	for i := range m.rowPos {
		m.rowPos[i] = -1
	}
	for pos, r := range classRows {
		m.rowPos[r] = int32(pos)
		m.classMask.Add(r)
	}
	m.root.Fill()
	for l := range m.depth {
		m.depth[l] = levelScratch{
			next:     bitset.New(d.NumGenes()),
			classSet: bitset.New(d.NumSamples()),
		}
	}
	return m
}

// run enumerates every root in index order (row enumeration). A stopped
// run keeps the covering groups found so far as its partial result, and
// every run, stopped or not, flushes its counters.
func (m *topkMiner) run() error {
	defer m.flushCounts()
	for idx := range m.classRows {
		if err := m.dfs(m.root, m.rootRows, idx, 0); err != nil {
			return err
		}
	}
	return nil
}

// result is the run's output: the groups present in some row's top-k list
// (the covering property of Top-k output), best first, and the lists.
func (m *topkMiner) result() *TopKResult {
	res := &TopKResult{Class: m.ci, PerRow: make(map[int][]*RuleGroup, len(m.classRows))}
	seen := map[*RuleGroup]bool{}
	for pos, lst := range m.covers {
		if lst != nil {
			res.PerRow[m.classRows[pos]] = lst
		}
		for _, g := range lst {
			if !seen[g] {
				seen[g] = true
				res.Groups = append(res.Groups, g)
			}
		}
	}
	sort.Slice(res.Groups, func(i, j int) bool {
		return coverLess(res.Groups[i], res.Groups[j])
	})
	return res
}

// flushCounts adds the counts gathered since the last flush to the shared
// registry.
func (m *topkMiner) flushCounts() {
	c, f := &m.count, &m.flushed
	met.nodes.Add(c.nodes - f.nodes)
	met.revisitSkips.Add(c.revisitSkips - f.revisitSkips)
	met.prunedSup.Add(c.prunedSup - f.prunedSup)
	met.prunedConf.Add(c.prunedConf - f.prunedConf)
	met.floorPrunes.Add(c.floorPrunes - f.floorPrunes)
	met.floorSkips.Add(c.floorSkips - f.floorSkips)
	met.groups.Add(c.groups - f.groups)
	*f = *c
}

// dfs extends the current intersection with class row classRows[idx] and
// recurses over later rows. itemset is the running intersection (the full
// gene set at the synthetic root) and parent its class support set; level
// is the recursion depth, bounded by the class-row count since idx strictly
// increases.
func (m *topkMiner) dfs(itemset, parent *bitset.Set, idx, level int) error {
	m.count.nodes++
	// Amortized stop poll, aligned to fire on the miner's very first node:
	// with the dynamic floors whole runs can finish under one 64-node
	// stride, and budget expiry / fault injection must still be observed.
	if m.count.nodes&63 == 1 {
		m.flushCounts()
		if m.maxNodes > 0 && m.count.nodes > int64(m.maxNodes) {
			return ErrBudgetExceeded
		}
		if err := m.budget.Check(m.ctx); err != nil {
			return err
		}
		if err := fault.Hit("carminer.dfs"); err != nil {
			return err
		}
	}
	sc := &m.depth[level]
	r := m.classRows[idx]
	next, classSet := sc.next, sc.classSet
	if !itemset.IntersectIntoAny(next, m.d.Rows[r]) {
		return nil
	}
	// Closure: every row of any class containing the itemset, for
	// confidence, the AND of its genes' row columns (one table entry per
	// non-zero itemset byte); classSet is its class rows. Canonical-parent
	// test, in the same pass: the node goes on only if row idx is the
	// lowest class row its closure gains over the parent's. Every closed
	// node has exactly one such parent, and depth-first order arrives from
	// it first; whatever a later arrival could expand, that first one
	// expanded, or a prune on the way to it cut.
	rows := m.rows.IntersectColumns(next, m.cols)
	if rows.IntersectMinDifference(classSet, m.classMask, parent) != r {
		m.count.revisitSkips++
		return nil
	}
	total := rows.Count()
	support := classSet.Count()
	if support >= m.minSup {
		m.record(next, classSet, support, total)
	}
	if m.pruned(classSet, idx, support, total) {
		return nil
	}
	// Children: the later class rows outside the closure (extending by a
	// row already in it is a no-op), walked a word of classMask \ classSet
	// at a time.
	from := r + 1
	mask := ^uint64(0) << (uint(from) % 64)
	for wi := from / 64; 64*wi < m.classMask.Len(); wi, mask = wi+1, ^uint64(0) {
		for w := (m.classMask.Word(wi) &^ classSet.Word(wi)) & mask; w != 0; w &= w - 1 {
			j := m.rowPos[64*wi+bits.TrailingZeros64(w)]
			if err := m.dfs(next, classSet, int(j), level+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// pruned reports, and counts, a node no descendant of which can enter any
// row's top-k. Support grows going down (descendants intersect more rows,
// shrinking the itemset and enlarging its closure), so the minsup prune is
// a capacity bound: even absorbing every remaining candidate row cannot
// lift a descendant's support above support + remaining. effMinSup is the
// floor-raised minimum (== minSup until every row's top-k is full of
// full-confidence groups). The confidence prune is prunable's.
func (m *topkMiner) pruned(classSet *bitset.Set, idx, support, total int) bool {
	if support < m.effMinSup {
		// The later class rows outside the closure: all later class rows
		// less the closure's.
		remaining := len(m.classRows) - 1 - idx - classSet.CountAfter(m.classRows[idx])
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

// record builds the group and offers it to the top-k list of every covered
// row. The admissibility probe runs first: when no covered row's top-k
// would keep the group, record returns before allocating anything — on
// dense profiles the vast majority of closed nodes die here. itemset and
// classSet live in the dfs scratch stack, so they are cloned, and the key
// string built, only for a group some row keeps.
func (m *topkMiner) record(itemset, classSet *bitset.Set, support, total int) {
	conf := float64(support) / float64(total)
	m.keyBuf = classSet.AppendKey(m.keyBuf[:0])
	if !m.admissible(classSet, conf, support, m.keyBuf) {
		m.count.floorSkips++
		return
	}
	m.count.groups++
	g := &RuleGroup{
		Class:      m.ci,
		UpperBound: itemset.Clone(),
		ClassRows:  classSet.Clone(),
		Support:    support,
		TotalRows:  total,
		Confidence: conf,
		key:        string(m.keyBuf),
	}
	classSet.ForEach(func(r int) bool {
		m.offer(int(m.rowPos[r]), g)
		return true
	})
}

// admissible reports whether some covered row's top-k would keep a group
// with the given stats: a non-full list always would; a full list iff the
// group beats its current worst entry in coverLess order. The comparison
// mirrors coverLess exactly, so offer keeps a group iff admissible said so.
func (m *topkMiner) admissible(classSet *bitset.Set, conf float64, support int, key []byte) bool {
	adm := false
	classSet.ForEach(func(r int) bool {
		lst := m.covers[m.rowPos[r]]
		if len(lst) < m.k {
			adm = true
			return false
		}
		worst := lst[len(lst)-1]
		if conf > worst.Confidence ||
			(conf == worst.Confidence && (support > worst.Support ||
				(support == worst.Support && string(key) < worst.key))) {
			adm = true
			return false
		}
		return true
	})
	return adm
}

// offer inserts g into the top-k of the class row at position pos in
// coverLess order, if the list keeps it. A kept offer that fills the list
// or changes its k-th entry moves that row's floor, so the cached global
// floor is marked stale.
func (m *topkMiner) offer(pos int, g *RuleGroup) {
	lst := m.covers[pos]
	at := len(lst)
	for i, h := range lst {
		if coverLess(g, h) {
			at = i
			break
		}
	}
	if at >= m.k {
		return
	}
	wasFull := len(lst) >= m.k
	lst = append(lst, nil)
	copy(lst[at+1:], lst[at:])
	lst[at] = g
	if len(lst) > m.k {
		lst = lst[:m.k]
	}
	m.covers[pos] = lst
	if len(lst) == m.k {
		if !wasFull {
			m.fullRows++
		}
		m.floorDirty = true
	}
}

// prunable implements the covering-top-k confidence prune. A descendant's
// itemset shrinks, so outside rows containing it only grow beyond the
// current `outside` count while its class support is at most |C_i|; its
// confidence is therefore bounded by |C_i| / (|C_i| + outside). If every
// class row's current k-th best rule already beats that bound (or matches
// it at the maximal possible support), no descendant can enter any top-k
// list and the subtree is useless.
//
// The decision needs only the weakest k-th entry across rows — the cached
// floor — turning the reference O(rows) scan into O(1) per node, with the
// scan paid once per floor movement in refreshFloor. Both branches decide
// identically: the floor is the lexicographic minimum of the per-row worst
// (confidence, support) pairs, so it fails the bound test iff some row does.
func (m *topkMiner) prunable(outside int) bool {
	nc := len(m.classRows)
	bound := float64(nc) / float64(nc+outside)
	if m.noFloors {
		for _, lst := range m.covers {
			if len(lst) < m.k {
				return false
			}
			worst := lst[len(lst)-1]
			if worst.Confidence < bound {
				return false
			}
			if worst.Confidence == bound && worst.Support < nc {
				return false
			}
		}
		return true
	}
	if m.fullRows < len(m.covers) {
		return false
	}
	if m.floorDirty {
		m.refreshFloor()
	}
	if m.floorConf < bound {
		return false
	}
	if m.floorConf == bound && m.floorSup < nc {
		return false
	}
	return true
}

// refreshFloor recomputes the weakest k-th cover entry across class rows
// (every list is full when this runs) and, when every floor already demands
// full confidence, raises the effective minimum support to the weakest
// floor's support. The raise is exact-safe: with floorConf == 1 every row's
// worst entry has confidence 1 and support ≥ floorSup, so a group with
// support < floorSup loses every coverLess comparison against every worst
// entry — now and, floors being monotone, at the end of the run — and can
// never enter any final top-k. Support exactly floorSup stays minable (the
// key tie-break can still admit it), hence the capacity prune's strict <.
func (m *topkMiner) refreshFloor() {
	m.floorDirty = false
	m.floorConf, m.floorSup = 2, 0 // above any reachable confidence
	for _, lst := range m.covers {
		worst := lst[len(lst)-1]
		if worst.Confidence < m.floorConf ||
			(worst.Confidence == m.floorConf && worst.Support < m.floorSup) {
			m.floorConf, m.floorSup = worst.Confidence, worst.Support
		}
	}
	if m.floorConf == 1 && m.floorSup > m.effMinSup {
		m.effMinSup = m.floorSup
	}
}
