package fleet

import (
	"sync"
	"time"
)

// health is a replica's one state; only an up replica is routable.
type health int32

const (
	up       health = iota // requests flow
	down                   // ejected; one re-check (a probe or a trial request) when due
	draining               // answered 503 on /readyz: alive, probed every cycle, sent nothing
)

func (h health) String() string { return [...]string{"up", "down", "draining"}[h] }

// maxRecheckShift caps a down replica's re-check delay at
// ProbeInterval << maxRecheckShift (32 × ProbeInterval).
const maxRecheckShift = 5

// replica is one member's health: a single state fed alike by request
// outcomes and probe verdicts. EjectThreshold failures in a row (a 5xx, a
// transport error, an attempt timeout or a dead probe) take it down, a 503
// probe makes it draining, and any success brings it back up. A down replica
// is re-checked ProbeInterval after it went down, by the prober or by one
// trial request, whichever claims the check first; every failed check
// doubles the delay up to 32 × ProbeInterval. Methods take the current time
// explicitly, so tests drive the state machine on a manual clock.
type replica struct {
	name string
	cfg  *Config
	met  *fleetMetrics

	mu    sync.Mutex
	state health
	fails int       // consecutive failures; past EjectThreshold, the failed checks
	next  time.Time // when a down replica's re-check is due
	trial bool      // a down replica's re-check is in flight
}

func newReplica(name string, cfg *Config, met *fleetMetrics) *replica {
	return &replica{name: name, cfg: cfg, met: met}
}

// set moves r to s, counting a move out of rotation as an ejection and a
// move back into it as a restore.
func (r *replica) set(s health) {
	if (r.state == up) != (s == up) {
		if s == up {
			r.met.restores.Inc()
		} else {
			r.met.ejections.Inc()
		}
	}
	r.state = s
}

// claim takes a down replica's re-check once it is due. Exactly one caller
// wins it, and no one else can until a verdict or release ends it.
func (r *replica) claim(now time.Time) bool {
	if r.state != down || r.trial || now.Before(r.next) {
		return false
	}
	r.trial = true
	return true
}

// admit claims the right to send one request: always to an up replica, and
// to a down one only as its due re-check, which trial reports.
func (r *replica) admit(now time.Time) (ok, trial bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == up {
		return true, false
	}
	ok = r.claim(now)
	return ok, ok
}

// due reports whether the prober checks r now: every cycle while it is up
// or draining, and while it is down only as its claimed re-check.
func (r *replica) due(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state != down || r.claim(now)
}

// succeed records a success from a request or a probe.
func (r *replica) succeed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails, r.trial = 0, false
	r.set(up)
}

// drain records a 503 probe: the replica is alive but takes no traffic.
func (r *replica) drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails, r.trial = 0, false
	r.set(draining)
}

// fail records a failure; check marks the outcome of a down replica's
// re-check. The EjectThreshold-th failure in a row takes the replica down
// with its re-check ProbeInterval away, and each failed check after that
// doubles the delay. While down, other failures (requests sent before the
// ejection, or by the fail-open path) say nothing new and are ignored.
func (r *replica) fail(now time.Time, check bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == down && !(check && r.trial) {
		return
	}
	r.fails++
	if r.fails < r.cfg.EjectThreshold {
		return
	}
	r.trial = false
	r.next = now.Add(r.cfg.ProbeInterval << min(r.fails-r.cfg.EjectThreshold, maxRecheckShift))
	r.set(down)
}

// release gives back a re-check that ended without a verdict (its caller
// gave up, or a hedge answered first), so the next caller can claim it.
func (r *replica) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trial = false
}

// routable reports whether the replica is up: what /readyz, the
// fleet.routable gauge and hedge-backup selection read.
func (r *replica) routable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state == up
}

// Status is one replica's externally visible state, for /fleetz.
type Status struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Routable bool   `json:"routable"`
}

func (r *replica) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{Name: r.name, State: r.state.String(), Routable: r.state == up}
}
