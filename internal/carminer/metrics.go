package carminer

import "bstc/internal/obs"

// met holds this package's instrumentation handles; nil fields (the
// default) are no-ops. SetMetrics must not race with an active mining run.
var met struct {
	// Top-k row enumeration (the search Tables 4/6 show going
	// super-linear).
	nodes        *obs.Counter // carminer.topk.nodes — enumeration nodes visited
	prunedSup    *obs.Counter // carminer.topk.pruned_support — minsup capacity prunes
	prunedConf   *obs.Counter // carminer.topk.pruned_confidence — covering-top-k prunes
	revisitSkips *obs.Counter // carminer.topk.revisit_skips — arrivals the canonical-parent test rejects
	groups       *obs.Counter // carminer.topk.groups — closed rule groups recorded

	// Dynamic-floor machinery (exact-safe pruning added on top of the
	// SIGMOD'05 prunes).
	floorSkips  *obs.Counter // carminer.topk.floor_skips — groups rejected before allocation
	floorPrunes *obs.Counter // carminer.topk.floor_prunes — subtrees cut by the raised minsup

	// Budget/deadline accounting shared by every miner taking a Budget.
	deadlinePolls   *obs.Counter // carminer.deadline.polls
	deadlineExpired *obs.Counter // carminer.deadline.expired
	ctxStops        *obs.Counter // carminer.ctx.stops — context deadline/cancel stops

	// Lower-bound BFS (the §6.2.3 blowup on PC upper bounds).
	lbSteps        *obs.Counter // carminer.lb.steps — candidates examined
	lbBounds       *obs.Counter // carminer.lb.bounds — lower bounds emitted
	lbFrontierPeak *obs.Gauge   // carminer.lb.frontier_peak — widest BFS level
}

// SetMetrics binds this package's counters to r (nil restores the no-op
// default).
func SetMetrics(r *obs.Registry) {
	met.nodes = r.Counter("carminer.topk.nodes")
	met.prunedSup = r.Counter("carminer.topk.pruned_support")
	met.prunedConf = r.Counter("carminer.topk.pruned_confidence")
	met.revisitSkips = r.Counter("carminer.topk.revisit_skips")
	met.groups = r.Counter("carminer.topk.groups")
	met.floorSkips = r.Counter("carminer.topk.floor_skips")
	met.floorPrunes = r.Counter("carminer.topk.floor_prunes")
	met.deadlinePolls = r.Counter("carminer.deadline.polls")
	met.deadlineExpired = r.Counter("carminer.deadline.expired")
	met.ctxStops = r.Counter("carminer.ctx.stops")
	met.lbSteps = r.Counter("carminer.lb.steps")
	met.lbBounds = r.Counter("carminer.lb.bounds")
	met.lbFrontierPeak = r.Gauge("carminer.lb.frontier_peak")
}
