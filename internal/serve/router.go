package serve

import (
	"fmt"
	"sync"
	"time"

	"bstc/internal/bitset"
	"bstc/internal/eval"
	"bstc/internal/fault"
	"bstc/internal/obs"
)

// This file is the multi-model routing layer: the server no longer owns one
// artifact but an atomically swappable routing snapshot over per-version
// serving pipelines. Each version gets its own micro-batch queue and
// batcher (batches are never mixed across versions), its own labeled
// serve.* series, and its own SLO trackers, so a canary is comparable to
// the stable version on every axis the obs layer grades.
//
// The swap protocol (Apply) is drain-old/warm-new: the new snapshot is
// published first, so new requests route to the new version immediately;
// versions that fell out of the table then retire in the background —
// requests already routed to them finish on them, their batch worker
// classifies what is queued, and only when their last response is
// delivered is the artifact released.
// No request is ever dropped or answered by a version other than the one
// it was routed to.

// Model describes one artifact version handed to New or Apply. Release,
// when non-nil, is called exactly once after the version has fully drained
// and nothing can touch the artifact anymore (this is how a registry
// handle is released, which unmaps the artifact at its last reference).
type Model struct {
	// Version names the artifact build ("v1"). Responses carry it, metrics
	// are labeled with it.
	Version string
	// Artifact is the loaded inference pipeline.
	Artifact *eval.Artifact
	// Fingerprint is the artifact's content identity (a prefix of the
	// registry's file digest); /v1/model reports it so a swap is
	// observable even when version names are reused.
	Fingerprint string
	// LoadNanos is the measured cold-start load time.
	LoadNanos int64
	// Release is invoked once the version is fully drained.
	Release func()
}

// Update is the desired routing state for Apply: a stable version plus an
// optional canary taking CanaryPercent of traffic, split deterministically
// by Seed.
type Update struct {
	Stable        *Model
	Canary        *Model
	CanaryPercent float64
	Seed          uint64
}

// model is one live serving version: the artifact plus its own queue and
// batch worker and per-version telemetry.
type model struct {
	version     string
	fingerprint string
	loadNanos   int64
	art         *eval.Artifact
	itemIdx     map[string]int
	release     func()

	queue   chan *pending
	batcher sync.WaitGroup // the batch worker goroutine

	mu     sync.Mutex
	cond   *sync.Cond
	active int  // requests routed here and not yet answered
	closed bool // queue closed; acquire fails, callers re-route

	retireOnce sync.Once

	met        vmetrics
	sloAvail   *obs.SLO
	sloLatency *obs.SLO

	s *Server
}

// vmetrics are the per-version labeled series, mirroring the global serve.*
// set so a canary and its stable are comparable dimension by dimension.
type vmetrics struct {
	requests     *obs.Counter
	ok           *obs.Counter
	failures     *obs.Counter
	batches      *obs.Counter
	batchSamples *obs.Counter
	batchSize    *obs.Histogram
	latency      *obs.Histogram
}

// snapshot is one immutable routing table; the server swaps the whole
// thing atomically.
type snapshot struct {
	gen      int64
	stable   *model
	canary   *model // nil when no canary is live
	permille int    // canary share of traffic in 1/1000ths
	seed     uint64
}

// models returns the snapshot's distinct live versions.
func (sn *snapshot) models() []*model {
	if sn == nil {
		return nil
	}
	if sn.canary == nil || sn.canary == sn.stable {
		return []*model{sn.stable}
	}
	return []*model{sn.stable, sn.canary}
}

// byVersion finds a live model by version name.
func (sn *snapshot) byVersion(version string) *model {
	for _, m := range sn.models() {
		if m.version == version {
			return m
		}
	}
	return nil
}

// permilleOf converts a canary percentage to 1/1000ths of traffic.
func permilleOf(percent float64) int {
	switch {
	case percent <= 0:
		return 0
	case percent >= 100:
		return 1000
	}
	return int(percent*10 + 0.5)
}

// routePermille hashes (seed, key) into [0, 1000) with FNV-1a. It is the
// deterministic canary split: the keys whose slot is below the snapshot's
// permilleOf(percent) route to the canary, so the same (seed, key) always
// lands on the same side — across requests, replicas, and restarts.
func routePermille(seed uint64, key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*i)))) * prime64
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * prime64
	}
	return int(h % 1000)
}

// pick routes one request: the canary when one is live and the hash says
// so, the stable otherwise. A fault injected at serve.canary downgrades the
// pick to the stable version — routing degrades, never breaks.
func (sn *snapshot) pick(key []byte, met *metrics) (m *model, canary bool) {
	if sn.canary == nil || sn.permille <= 0 {
		return sn.stable, false
	}
	if err := fault.Hit("serve.canary"); err != nil {
		met.canaryFallbacks.Inc()
		return sn.stable, false
	}
	if routePermille(sn.seed, key) < sn.permille {
		return sn.canary, true
	}
	return sn.stable, false
}

// newModel builds a live version and starts its batch worker.
func (s *Server) newModel(d *Model) *model {
	reg := s.cfg.Registry
	ver := obs.Label{Key: "version", Value: d.Version}
	m := &model{
		version:     d.Version,
		fingerprint: d.Fingerprint,
		loadNanos:   d.LoadNanos,
		art:         d.Artifact,
		itemIdx:     d.Artifact.Disc.ItemIndex(),
		release:     d.Release,
		queue:       make(chan *pending, s.cfg.MaxInFlight),
		met: vmetrics{
			requests:     reg.CounterWith("serve.requests", ver),
			ok:           reg.CounterWith("serve.ok", ver),
			failures:     reg.CounterWith("serve.failures", ver),
			batches:      reg.CounterWith("serve.batches", ver),
			batchSamples: reg.CounterWith("serve.batch_samples", ver),
			batchSize:    reg.HistogramWith("serve.batch_size", ver),
			latency:      reg.HistogramWith("serve.latency_ns", ver),
		},
		s: s,
	}
	m.cond = sync.NewCond(&m.mu)
	m.sloAvail = obs.NewSLO(obs.SLOConfig{
		Name: "classify_availability@" + d.Version, Target: s.cfg.SLOTarget,
	})
	m.sloLatency = obs.NewSLO(obs.SLOConfig{
		Name: "classify_latency@" + d.Version, Target: s.cfg.SLOTarget, Threshold: s.cfg.SLOLatency,
	})
	s.slos.Add(m.sloAvail)
	s.slos.Add(m.sloLatency)
	if d.LoadNanos > 0 {
		reg.GaugeWith("serve.artifact_load_ns", ver).Set(d.LoadNanos)
	}
	m.batcher.Add(1)
	go m.runBatcher()
	return m
}

// acquire registers one routed request with the version. It fails only
// when the version has fully drained and torn down its queue, in which
// case the caller re-reads the routing snapshot — which by then names a
// live version — and routes again.
func (m *model) acquire() bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.active++
	m.mu.Unlock()
	return true
}

// done returns a routed request's slot and wakes the retirement waiter.
func (m *model) done() {
	m.mu.Lock()
	m.active--
	if m.active == 0 {
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// retire drains the version: already-routed requests finish here, then
// the queue closes, the batch worker stops, the version's SLOs leave the
// set, and the artifact is released. Requests that raced the swap and lost
// (acquire after teardown) re-route to the live snapshot; nothing is
// dropped. Idempotent; concurrent callers block until the first drain
// completes.
func (m *model) retire() {
	m.retireOnce.Do(func() {
		m.mu.Lock()
		for m.active > 0 {
			m.cond.Wait()
		}
		m.closed = true
		m.mu.Unlock()
		// Every routed request is answered and acquire now fails, so no
		// goroutine can still send on the queue; closing it stops the
		// worker after it classifies rows abandoned to deadlines.
		close(m.queue)
		m.batcher.Wait()
		m.s.slos.Remove(m.sloAvail.Name())
		m.s.slos.Remove(m.sloLatency.Name())
		if m.release != nil {
			m.release()
		}
	})
}

// queryRow turns a classify body into a query row over this version's item
// universe: a canonical values body in one fused scan, anything else
// through decodeRequest and rowOf. decoded is false when the body is not a
// valid request (err says why); a decoded request can still fail to fit
// this version (err with decoded true), which the handler reports only
// after counting the request against the version.
func (m *model) queryRow(body []byte) (q *bitset.Set, decoded bool, err error) {
	if q := scanValues(m.art.Disc, body); q != nil {
		return q, true, nil
	}
	req, err := decodeRequest(body)
	if err != nil {
		return nil, false, err
	}
	q, err = m.rowOf(req)
	return q, true, err
}

// rowOf turns a validated request into a query row over this version's
// item universe. Versions may disagree on vocabularies; a request is
// always discretized by the version that will classify it.
func (m *model) rowOf(req *Request) (*bitset.Set, error) {
	if len(req.Values) > 0 {
		return m.art.TransformRow(req.Values)
	}
	q := bitset.New(len(m.art.Classifier.GeneNames))
	for _, name := range req.Items {
		i, ok := m.itemIdx[name]
		if !ok {
			return nil, fmt.Errorf("unknown item %q", name)
		}
		q.Add(i)
	}
	return q, nil
}

// Apply atomically swaps the routing state: the new snapshot is published
// first (warm-new), then every version no longer routed retires in the
// background (drain-old). A fault injected at serve.swap aborts the swap
// with the old snapshot fully intact — the update's models are never
// started, and their Release funcs are invoked so the caller's registry
// handles are returned. Every error return releases the update's handles.
//
// Versions already live are reused: their pipelines, in-flight batches and
// metrics carry across the swap untouched, and the update's redundant
// handle for them is released immediately. An Update that only moves
// traffic between live versions therefore swaps instantly.
func (s *Server) Apply(u Update) error {
	if u.Stable == nil || u.Stable.Artifact == nil || u.Stable.Version == "" {
		releaseUpdate(u)
		return fmt.Errorf("serve: update needs a stable model with a version")
	}
	if u.Canary != nil {
		if u.Canary.Artifact == nil || u.Canary.Version == "" {
			releaseUpdate(u)
			return fmt.Errorf("serve: canary model needs an artifact and a version")
		}
		if u.Canary.Version == u.Stable.Version {
			releaseUpdate(u)
			return fmt.Errorf("serve: canary and stable are both version %q", u.Stable.Version)
		}
	}
	if u.CanaryPercent < 0 || u.CanaryPercent > 100 {
		releaseUpdate(u)
		return fmt.Errorf("serve: canary percent %v outside [0, 100]", u.CanaryPercent)
	}

	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.Draining() {
		releaseUpdate(u)
		return fmt.Errorf("serve: server is draining")
	}
	if err := fault.Hit("serve.swap"); err != nil {
		s.met.swapFails.Inc()
		releaseUpdate(u)
		return fmt.Errorf("serve: swap aborted: %w", err)
	}

	old := s.route.Load()
	place := func(d *Model) *model {
		if live := old.byVersion(d.Version); live != nil {
			if d.Release != nil {
				d.Release()
			}
			return live
		}
		return s.newModel(d)
	}
	next := &snapshot{
		gen:    old.gen + 1,
		stable: place(u.Stable),
		seed:   u.Seed,
	}
	if u.Canary != nil {
		next.canary = place(u.Canary)
		next.permille = permilleOf(u.CanaryPercent)
	}
	s.route.Store(next)
	s.met.swaps.Inc()
	s.met.routeGen.Set(next.gen)
	s.met.canaryShare.Set(int64(next.permille))

	for _, m := range old.models() {
		if next.byVersion(m.version) == nil {
			s.retireWG.Add(1)
			go func(m *model) {
				defer s.retireWG.Done()
				m.retire()
			}(m)
		}
	}
	s.logSwap(next)
	return nil
}

// releaseUpdate returns an aborted update's handles.
func releaseUpdate(u Update) {
	if u.Stable != nil && u.Stable.Release != nil {
		u.Stable.Release()
	}
	if u.Canary != nil && u.Canary.Release != nil {
		u.Canary.Release()
	}
}

// logSwap emits one run-log record per route change, so rollouts are
// reconstructable from the same stream batches land in.
func (s *Server) logSwap(next *snapshot) {
	if s.cfg.RunLog == nil {
		return
	}
	s.cfg.RunLog.Emit(obs.RunRecord{
		Experiment: "serve.swap",
		Test:       int(next.gen),
		Config: map[string]float64{
			"generation":      float64(next.gen),
			"canary_permille": float64(next.permille),
		},
		Dataset: routeString(next),
	})
}

// routeString renders a snapshot compactly ("stable=v1 canary=v2@10%").
func routeString(sn *snapshot) string {
	if sn.canary == nil || sn.permille <= 0 {
		return "stable=" + sn.stable.version
	}
	return fmt.Sprintf("stable=%s canary=%s@%.1f%%",
		sn.stable.version, sn.canary.version, float64(sn.permille)/10)
}

// Route reports the current routing state: stable version, canary version
// ("" when none), and the canary's traffic percentage.
func (s *Server) Route() (stable, canary string, percent float64) {
	sn := s.route.Load()
	stable = sn.stable.version
	if sn.canary != nil && sn.permille > 0 {
		canary = sn.canary.version
		percent = float64(sn.permille) / 10
	}
	return stable, canary, percent
}

// Generation returns the routing table's swap generation (1 for the
// snapshot installed by New, +1 per successful Apply).
func (s *Server) Generation() int64 { return s.route.Load().gen }

// waitRetired blocks until every background retirement has finished, with
// a deadline; tests use it to assert drain completion.
func (s *Server) waitRetired(d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.retireWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
