package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/serve"
)

// Config tunes a fleet Client. The zero value of every field (except
// Replicas) selects a sane default.
type Config struct {
	// Replicas is the initial member list: base URLs of bstcd replicas
	// ("http://host:port"). Required non-empty; SetReplicas changes it live.
	Replicas []string
	// Seed fixes the consistent-hash placement. The same (Seed, members)
	// pair produces the identical key→replica assignment in every process.
	Seed uint64
	// AttemptTimeout bounds one attempt against one replica, and one
	// /readyz probe (default 2s).
	AttemptTimeout time.Duration
	// Retry shapes the backoff schedule and attempt cap.
	Retry RetryPolicy
	// RetryBudgetRatio and RetryBudgetMax configure the client-wide retry
	// budget: every first attempt deposits Ratio tokens up to Max, every
	// retry spends one (defaults 0.1 and 10 — sustained retries throttle to
	// 10% of traffic).
	RetryBudgetRatio float64
	RetryBudgetMax   float64
	// EjectThreshold is how many failures in a row — 5xx answers, transport
	// errors, attempt timeouts and dead probes alike — take a replica out of
	// rotation (default 3).
	EjectThreshold int
	// ProbeInterval is the /readyz probe cadence (default 1s). It is also a
	// down replica's first re-check delay, which doubles on every failed
	// re-check up to 32 × ProbeInterval.
	ProbeInterval time.Duration
	// HedgeDelay is the tail-latency hedge trigger before enough latency
	// samples exist to derive it: once latencyMinSamples successes are
	// recorded, the delay is the rolling p99 clamped to
	// [HedgeDelay, HedgeMaxDelay]. Negative disables hedging; 0 defaults
	// to 30ms. HedgeMaxDelay defaults to AttemptTimeout/2.
	HedgeDelay    time.Duration
	HedgeMaxDelay time.Duration
	// Registry receives the fleet.* counters/gauges/histograms; nil runs
	// uninstrumented.
	Registry *obs.Registry
	// Tracer, when requests carry a span context, hangs fleet/request and
	// per-attempt spans under it.
	Tracer *trace.Tracer
	// SLOTarget and SLOLatency grade fleet availability and latency
	// objectives (defaults 0.999 and 100ms), reported by Client.SLOs.
	SLOTarget  float64
	SLOLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	c.Retry = c.Retry.withDefaults()
	if c.EjectThreshold <= 0 {
		c.EjectThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 30 * time.Millisecond
	}
	if c.HedgeMaxDelay <= 0 {
		c.HedgeMaxDelay = c.AttemptTimeout / 2
	}
	if c.SLOTarget <= 0 || c.SLOTarget >= 1 {
		c.SLOTarget = 0.999
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 100 * time.Millisecond
	}
	return c
}

// Result is one fleet call's outcome: the winning replica's HTTP response
// plus how the fleet got it.
type Result struct {
	Status  int
	Header  http.Header
	Body    []byte
	Replica string
	// Attempts is how many requests went on the wire (retries and hedges
	// included).
	Attempts int
	// Retries is how many backoff-then-retry rounds ran.
	Retries int
	// Hedged reports whether a tail-latency hedge fired during the call.
	Hedged bool
}

// fleetMetrics are the client's obs handles (nil-safe when uninstrumented).
type fleetMetrics struct {
	requests      *obs.Counter
	ok            *obs.Counter
	failures      *obs.Counter
	retries       *obs.Counter
	budgetDenied  *obs.Counter
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	ejections     *obs.Counter
	restores      *obs.Counter
	probes        *obs.Counter
	probeFailures *obs.Counter
	probeNotReady *obs.Counter
	failOpen      *obs.Counter
	members       *obs.Gauge
	routable      *obs.Gauge
	latency       *obs.Histogram
	attemptLat    *obs.Histogram
}

// Client fronts a replica set: requests route by consistent hash, around
// replicas out of rotation, with budgeted retries and tail hedging.
// Create with New, start active probing with Start, stop with Close.
type Client struct {
	cfg Config
	clk clock
	// http sends the requests: a dedicated client with per-replica
	// connection pooling; per-attempt deadlines come from AttemptTimeout,
	// not a client timeout.
	http *http.Client

	ring atomic.Pointer[Ring]

	mu       sync.Mutex
	replicas map[string]*replica
	// rng draws the backoff jitter from a fixed seed, so the same failure
	// sequence draws the same backoffs in every run.
	rng *rand.Rand

	budget *retryBudget
	lat    *latencyTracker
	met    fleetMetrics

	slos       *obs.SLOSet
	sloAvail   *obs.SLO
	sloLatency *obs.SLO

	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
	closeOnce   sync.Once
}

// New builds a client over cfg.Replicas. The ring and per-replica state are
// live immediately; call Start to begin active health probing (requests
// route fine without it: request outcomes alone still eject a replica, and
// trial requests bring it back).
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica is required")
	}
	reg := cfg.Registry
	c := &Client{
		cfg: cfg,
		clk: realClock{},
		http: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
			},
		},
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		rng:      rand.New(rand.NewSource(1)),
		budget:   newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetMax),
		lat:      newLatencyTracker(),
		met: fleetMetrics{
			requests:      reg.Counter("fleet.requests"),
			ok:            reg.Counter("fleet.ok"),
			failures:      reg.Counter("fleet.failures"),
			retries:       reg.Counter("fleet.retries"),
			budgetDenied:  reg.Counter("fleet.retry_budget_exhausted"),
			hedges:        reg.Counter("fleet.hedges"),
			hedgeWins:     reg.Counter("fleet.hedge_wins"),
			ejections:     reg.Counter("fleet.ejections"),
			restores:      reg.Counter("fleet.restores"),
			probes:        reg.Counter("fleet.probes"),
			probeFailures: reg.Counter("fleet.probe_failures"),
			probeNotReady: reg.Counter("fleet.probe_notready"),
			failOpen:      reg.Counter("fleet.fail_open"),
			members:       reg.Gauge("fleet.members"),
			routable:      reg.Gauge("fleet.routable"),
			latency:       reg.Histogram("fleet.latency_ns"),
			attemptLat:    reg.Histogram("fleet.attempt_ns"),
		},
	}
	c.sloAvail = obs.NewSLO(obs.SLOConfig{Name: "fleet_availability", Target: cfg.SLOTarget})
	c.sloLatency = obs.NewSLO(obs.SLOConfig{
		Name: "fleet_latency", Target: cfg.SLOTarget, Threshold: cfg.SLOLatency,
	})
	c.slos = obs.NewSLOSet()
	c.slos.Add(c.sloAvail)
	c.slos.Add(c.sloLatency)
	c.setMembers(cfg.Replicas)
	return c, nil
}

// setMembers installs the member list: a fresh ring plus replica states for
// new members; states for departed members are dropped.
func (c *Client) setMembers(members []string) {
	ring := NewRing(c.cfg.Seed, DefaultVNodes, members)
	c.mu.Lock()
	next := make(map[string]*replica, len(ring.members))
	for _, m := range ring.members {
		if r, ok := c.replicas[m]; ok {
			next[m] = r
		} else {
			next[m] = newReplica(m, &c.cfg, &c.met)
		}
	}
	c.replicas = next
	c.mu.Unlock()
	c.ring.Store(ring)
	c.met.members.Set(int64(len(ring.members)))
}

// SetReplicas swaps the member list live. Keys re-shard minimally: only
// keys owned by departed members (plus the share a joining member claims)
// move — the consistent-hash property the ring test pins.
func (c *Client) SetReplicas(members []string) { c.setMembers(members) }

// Ring returns the live ring (for tests and the gateway's /fleetz).
func (c *Client) Ring() *Ring { return c.ring.Load() }

// replicaFor returns the state for a member name.
func (c *Client) replicaFor(name string) *replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[name]
}

// Statuses reports every replica's live state, sorted by the ring's member
// order.
func (c *Client) Statuses() []Status {
	ring := c.ring.Load()
	out := make([]Status, 0, len(ring.members))
	for _, m := range ring.members {
		if r := c.replicaFor(m); r != nil {
			out = append(out, r.status())
		}
	}
	return out
}

// SLOs returns the fleet-level SLO set (availability, latency).
func (c *Client) SLOs() *obs.SLOSet { return c.slos }

// Start launches the active health prober: every ProbeInterval each up or
// draining replica's /readyz is checked, and each down replica whose
// re-check is due. Stops when ctx ends or Close is called.
func (c *Client) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	c.probeCancel = cancel
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		for {
			c.ProbeOnce(ctx)
			if err := c.clk.Sleep(ctx, c.cfg.ProbeInterval); err != nil {
				return
			}
		}
	}()
}

// Close stops the prober and releases idle connections.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		if c.probeCancel != nil {
			c.probeCancel()
		}
		c.probeWG.Wait()
		c.http.CloseIdleConnections()
	})
}

// ProbeOnce checks every replica that is due and folds the verdicts into
// its health: 200 is a success, 503 makes the replica draining, and
// anything else — other statuses, timeouts, refused connections — is a
// failure. Exported so tests and the gateway's startup can run a
// deterministic probe cycle without the background loop.
func (c *Client) ProbeOnce(ctx context.Context) {
	var routable int64
	for _, name := range c.ring.Load().members {
		r := c.replicaFor(name)
		if r == nil {
			continue
		}
		if r.due(c.clk.Now()) {
			c.met.probes.Inc()
			switch c.probe(ctx, name) {
			case http.StatusOK:
				r.succeed()
			case http.StatusServiceUnavailable:
				c.met.probeNotReady.Inc()
				r.drain()
			default:
				c.met.probeFailures.Inc()
				r.fail(c.clk.Now(), true)
			}
		}
		if r.routable() {
			routable++
		}
	}
	c.met.routable.Set(routable)
}

// probe runs one /readyz check bounded by AttemptTimeout and returns its
// status, or 0 when no answer came.
func (c *Client) probe(ctx context.Context, name string) int {
	if err := fault.Hit("fleet.probe"); err != nil {
		return 0
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, name+"/readyz", nil)
	if err != nil {
		return 0
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	return resp.StatusCode
}

// Classify routes one classify body by key across the fleet, with retries
// and hedging. Classification is a pure function of the row, so the call is
// idempotent and safe to retry and hedge.
func (c *Client) Classify(ctx context.Context, key, body []byte) (*Result, error) {
	return c.do(ctx, http.MethodPost, "/v1/classify", key, body)
}

// Get routes an idempotent GET (e.g. /v1/model) by key across the fleet
// with the same retry machinery.
func (c *Client) Get(ctx context.Context, path string, key []byte) (*Result, error) {
	return c.do(ctx, http.MethodGet, path, key, nil)
}

// maxFleetResponse bounds how much of a replica response the client buffers.
const maxFleetResponse = 8 << 20

// retryableStatus reports whether a response status warrants trying another
// replica: server errors and explicit shedding. 4xx (except 429) is the
// caller's fault and passes through untouched.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

func (c *Client) do(ctx context.Context, method, path string, key, body []byte) (*Result, error) {
	c.met.requests.Inc()
	c.budget.deposit()
	start := c.clk.Now()
	span := trace.FromContext(ctx).StartChild("fleet/request")
	defer span.End()
	span.SetAttr("path", path)

	seq := c.ring.Load().Sequence(key, 0)
	if len(seq) == 0 {
		c.met.failures.Inc()
		c.sloAvail.Record(false)
		return nil, fmt.Errorf("fleet: no replicas configured")
	}

	var (
		res      *Result
		lastErr  error
		retries  int
		attempts int
		hedged   bool
		cursor   int
		reroutes int
	)
	for {
		primary, backup, trial := c.pickPair(seq, &cursor)
		if primary == nil {
			// The member set changed wholesale mid-request; route on the
			// fresh ring (bounded — churn this hot means give up).
			reroutes++
			seq = c.ring.Load().Sequence(key, 0)
			if len(seq) == 0 || reroutes > 3 {
				c.met.failures.Inc()
				c.sloAvail.Record(false)
				return nil, fmt.Errorf("fleet: no routable replicas")
			}
			cursor = 0
			continue
		}
		outcome, from, usedHedge, n := c.attemptHedged(ctx, primary, backup, trial, method, path, key, body, span)
		attempts += n
		if usedHedge {
			hedged = true
		}
		res, lastErr = outcome.res, outcome.err
		c.grade(ctx, from, outcome, trial && from == primary)
		if lastErr == nil && !retryableStatus(res.Status) {
			break // success, or a caller error that retrying cannot fix
		}
		if ctx.Err() != nil {
			break
		}
		if retries+1 >= c.cfg.Retry.MaxAttempts {
			break
		}
		if !c.budget.withdraw() {
			c.met.budgetDenied.Inc()
			span.AddEvent("retry_budget_exhausted")
			break
		}
		retries++
		c.met.retries.Inc()
		var hint time.Duration
		if res != nil && (res.Status == http.StatusTooManyRequests || res.Status == http.StatusServiceUnavailable) {
			hint = headerRetryAfter(res.Header)
		}
		c.mu.Lock()
		wait := c.cfg.Retry.backoff(retries, c.rng, hint)
		c.mu.Unlock()
		span.AddEvent("backoff")
		if err := c.clk.Sleep(ctx, wait); err != nil {
			lastErr = err
			break
		}
	}

	elapsed := c.clk.Now().Sub(start)
	if lastErr != nil {
		c.met.failures.Inc()
		c.sloAvail.Record(false)
		span.SetError(lastErr)
		return nil, fmt.Errorf("fleet: %s %s failed after %d attempts: %w", method, path, attempts, lastErr)
	}
	res.Attempts, res.Retries, res.Hedged = attempts, retries, hedged
	if res.Status >= 200 && res.Status < 300 {
		c.met.ok.Inc()
		c.met.latency.Record(int64(elapsed))
		c.lat.record(elapsed)
		c.sloAvail.Record(true)
		c.sloLatency.RecordDuration(elapsed)
	} else {
		c.met.failures.Inc()
		c.sloAvail.Record(res.Status < 500)
	}
	span.SetAttr("status", res.Status)
	span.SetAttr("replica", res.Replica)
	return res, nil
}

// pickPair selects the next attempt's replica and its hedge backup,
// scanning the key's preference sequence from the cursor: the primary is
// the first replica that admits the request (trial reports that the attempt
// is a down replica's re-check), the backup the next up replica. With
// every replica out of rotation the fleet fails open — the health verdicts
// might be wrong, and sending the request costs less than manufacturing an
// outage — counting fleet.fail_open.
func (c *Client) pickPair(seq []string, cursor *int) (primary, backup *replica, trial bool) {
	now := c.clk.Now()
	n := len(seq)
	base := *cursor
	for i := 0; i < n; i++ {
		idx := (base + i) % n
		r := c.replicaFor(seq[idx])
		if r == nil {
			continue
		}
		if primary == nil {
			if ok, t := r.admit(now); ok {
				primary, trial = r, t
				*cursor = (idx + 1) % n
			}
			continue
		}
		if r.routable() {
			backup = r
			break
		}
	}
	if primary == nil {
		// Fail open: scan for any live state (a SetReplicas racing this
		// request may have dropped some members from the map).
		for i := 0; i < n && primary == nil; i++ {
			primary = c.replicaFor(seq[(base+i)%n])
		}
		if primary != nil {
			c.met.failOpen.Inc()
			*cursor = (base + 1) % n
		}
	}
	return primary, backup, trial
}

// outcome is one attempt round's result: an HTTP response or a transport
// error.
type outcome struct {
	res *Result
	err error
}

// grade feeds one attempt's outcome into its replica's health; check marks
// the attempt that held a down replica's re-check. An attempt whose caller
// gave up says nothing about the replica and only releases its check; an
// AttemptTimeout expiry leaves the caller's context live and counts. A 429
// is a healthy replica shedding load, so it counts as a success: failing
// it would turn load spikes into mass ejections.
func (c *Client) grade(ctx context.Context, from *replica, o outcome, check bool) {
	switch {
	case ctx.Err() != nil:
		if check {
			from.release()
		}
	case o.err != nil || o.res.Status >= 500:
		from.fail(c.clk.Now(), check)
	default:
		from.succeed()
	}
}

// attemptHedged runs one attempt round: the primary request, plus — if it
// is still unanswered after the hedge delay and a backup replica exists — a
// hedge request to the backup. The first definitive answer wins and the
// loser's context is canceled. A non-definitive first arrival (transport
// error or 5xx while the other request is still in flight) waits for the
// other, so a hedge can rescue a failed primary without burning a retry.
// trial marks the primary as a down replica's re-check, which a hedge win
// releases unjudged.
func (c *Client) attemptHedged(ctx context.Context, primary, backup *replica, trial bool, method, path string, key, body []byte, span *trace.Span) (o outcome, from *replica, hedged bool, attempts int) {
	type arrival struct {
		o   outcome
		rep *replica
	}
	ch := make(chan arrival, 2)
	launch := func(rep *replica) context.CancelFunc {
		actx, cancel := context.WithCancel(ctx)
		go func() {
			res, err := c.doAttempt(actx, rep.name, method, path, key, body, span)
			ch <- arrival{outcome{res, err}, rep}
		}()
		return cancel
	}

	cancels := make([]context.CancelFunc, 0, 2)
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	cancels = append(cancels, launch(primary))
	attempts = 1
	inflight := 1

	// Every call through Classify/Get is idempotent by construction
	// (classification is a pure function of the row), so hedging needs only
	// a backup replica and a non-negative delay.
	var hedgeC <-chan time.Time
	stopHedge := func() {}
	if backup != nil && c.cfg.HedgeDelay >= 0 {
		hedgeC, stopHedge = c.clk.After(c.hedgeDelay())
	}
	defer stopHedge()

	var firstLoss *arrival
	for {
		select {
		case a := <-ch:
			inflight--
			definitive := a.o.err == nil && !retryableStatus(a.o.res.Status)
			if definitive || inflight == 0 {
				if definitive && a.rep == backup {
					c.met.hedgeWins.Inc()
					span.AddEvent("hedge_won")
				}
				if firstLoss != nil {
					c.grade(ctx, firstLoss.rep, firstLoss.o, trial && firstLoss.rep == primary)
				} else if trial && a.rep != primary {
					primary.release()
				}
				return a.o, a.rep, hedged, attempts
			}
			// A failure with the other request still in flight: remember it
			// for grading and wait for the survivor.
			firstLoss = &a
		case <-hedgeC:
			hedgeC = nil
			if err := fault.Hit("fleet.hedge"); err != nil {
				span.AddEvent("hedge_suppressed")
				continue
			}
			hedged = true
			attempts++
			c.met.hedges.Inc()
			span.AddEvent("hedged")
			cancels = append(cancels, launch(backup))
			inflight++
		}
	}
}

// hedgeDelay derives the tail trigger: the rolling p99 of successful calls,
// clamped to [HedgeDelay, HedgeMaxDelay]; before enough samples exist, the
// configured HedgeDelay.
func (c *Client) hedgeDelay() time.Duration {
	d := c.lat.p99()
	if d == 0 {
		return c.cfg.HedgeDelay
	}
	if d < c.cfg.HedgeDelay {
		d = c.cfg.HedgeDelay
	}
	if d > c.cfg.HedgeMaxDelay {
		d = c.cfg.HedgeMaxDelay
	}
	return d
}

// doAttempt sends one request to one replica and buffers the response. The
// fleet.dial fault site fires before the wire, so chaos suites can script
// connection failures per attempt.
func (c *Client) doAttempt(ctx context.Context, name, method, path string, key, body []byte, parent *trace.Span) (*Result, error) {
	att := parent.StartChild("fleet/attempt")
	defer att.End()
	att.SetAttr("replica", name)
	if err := fault.Hit("fleet.dial"); err != nil {
		att.SetError(err)
		return nil, fmt.Errorf("dial %s: %w", name, err)
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, name+path, rd)
	if err != nil {
		att.SetError(err)
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if len(key) > 0 {
		// The replica's own canary split keys off the same header, so a
		// fleet request pins the same canary bucket on every replica.
		req.Header.Set(serve.RoutingKeyHeader, string(key))
	}
	start := c.clk.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		att.SetError(err)
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxFleetResponse))
	if err != nil {
		att.SetError(err)
		return nil, err
	}
	c.met.attemptLat.Record(int64(c.clk.Now().Sub(start)))
	att.SetAttr("status", resp.StatusCode)
	return &Result{
		Status:  resp.StatusCode,
		Header:  resp.Header,
		Body:    buf,
		Replica: name,
	}, nil
}

// headerRetryAfter parses a Retry-After header value (delta-seconds) from a
// buffered response's headers.
func headerRetryAfter(h http.Header) time.Duration {
	return retryAfterHint(&http.Response{Header: h})
}
