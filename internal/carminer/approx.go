package carminer

import (
	"fmt"
	"math"
)

// approxHotVisits is the guaranteed arrival count at which the approximate
// mode stops re-expanding a closed node's revisit gap: a node whose class
// support set has certifiably been reached this often has had its frequent
// neighborhood explored from several directions already, so the unexplored
// gap is unlikely to hold a group that survives the top-k lists.
const approxHotVisits = 3

// ApproxConfig enables the opt-in approximate mining mode. Exactly the
// space/accuracy knob of a space-saving sketch: either the sketch width or
// the relative error ε (width ⌈1/ε⌉) may be given; a set Width wins. The
// zero value disables approximation.
//
// Approximate mode never fabricates results: every returned group is a true
// closed rule group with exact support and confidence, mined by the exact
// enumeration. The approximation only prunes more aggressively — revisit
// gaps of sketch-certified hot nodes are skipped, and subtrees whose support
// capacity is within ε·|C_i| of the effective minimum support are cut — so
// the output is a subset of the exact output, with the sketch's per-group
// arrival bounds reported in TopKResult.Approx.
type ApproxConfig struct {
	// Width is the sketch width (max tracked itemset keys); 0 derives it
	// from Epsilon.
	Width int
	// Epsilon is the relative error in (0, 1]; the support slack is
	// ⌈Epsilon·|C_i|⌉ and the sketch width ⌈1/Epsilon⌉ when Width is 0.
	Epsilon float64
}

// Enabled reports whether approximate mode is requested.
func (a ApproxConfig) Enabled() bool { return a.Width > 0 || a.Epsilon > 0 }

func (a ApproxConfig) validate() error {
	if a.Width < 0 {
		return fmt.Errorf("carminer: approx width %d negative", a.Width)
	}
	if a.Epsilon < 0 || a.Epsilon > 1 {
		return fmt.Errorf("carminer: approx epsilon %v outside [0,1]", a.Epsilon)
	}
	return nil
}

// ResolveWidth returns the effective sketch width: Width when set, else
// ⌈1/Epsilon⌉.
func (a ApproxConfig) ResolveWidth() int {
	if a.Width > 0 {
		return a.Width
	}
	if a.Epsilon > 0 {
		return int(math.Ceil(1 / a.Epsilon))
	}
	return 0
}

// ResolveEpsilon returns the effective relative error: Epsilon when set,
// else 1/Width.
func (a ApproxConfig) ResolveEpsilon() float64 {
	if a.Epsilon > 0 {
		return a.Epsilon
	}
	if a.Width > 0 {
		return 1 / float64(a.Width)
	}
	return 0
}

// supportSlack is the approximate capacity-prune slack ⌈ε·nc⌉, at least 1
// so an enabled approximation always prunes more than the exact miner.
func supportSlack(a ApproxConfig, nc int) int {
	if !a.Enabled() {
		return 0
	}
	s := int(math.Ceil(a.ResolveEpsilon() * float64(nc)))
	if s < 1 {
		s = 1
	}
	return s
}

// ApproxReport carries the error accounting of an approximate run.
// MaxOvercount is the sketch's ErrorBound at the end of the run: no group's
// ArrivalEstimate overcounts its true arrivals by more.
type ApproxReport struct {
	Width        int
	Epsilon      float64
	SupportSlack int // support capacity slack ⌈ε·|C_i|⌉ used by the prune
	Arrivals     uint64
	MaxOvercount uint64
	Evictions    uint64
	SketchSkips  uint64
	SlackPrunes  uint64
}

// approxReport stamps every retained group with the sketch's arrival
// estimate and returns the run's error accounting; nil in exact mode.
func (m *topkMiner) approxReport(a ApproxConfig) *ApproxReport {
	if m.sk == nil {
		return nil
	}
	for _, g := range m.groups {
		est, maxErr, _ := m.sk.Estimate([]byte(g.key))
		g.ArrivalEstimate, g.ArrivalError = est, maxErr
	}
	met.sketchEvict.Add(int64(m.sk.Evictions()))
	met.sketchBound.SetMax(int64(m.sk.ErrorBound()))
	return &ApproxReport{
		Width:        a.ResolveWidth(),
		Epsilon:      a.ResolveEpsilon(),
		SupportSlack: m.slack,
		Arrivals:     m.sk.N(),
		MaxOvercount: m.sk.ErrorBound(),
		Evictions:    m.sk.Evictions(),
		SketchSkips:  uint64(m.count.sketchSkips),
		SlackPrunes:  uint64(m.count.slackPrunes),
	}
}
