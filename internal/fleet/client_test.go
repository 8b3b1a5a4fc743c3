package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bstc/internal/fault"
	"bstc/internal/obs"
)

// newFleetClient builds a client over already-running test servers with a
// manual clock installed, so every sleep/backoff/hedge timer in the suite is
// scripted, never slept.
func newFleetClient(t *testing.T, cfg Config, urls ...string) (*Client, *manualClock, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Replicas = urls
	cfg.Registry = reg
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clk := newManualClock()
	c.clk = clk
	t.Cleanup(c.Close)
	return c, clk, reg
}

// keyWithPrimary finds a routing key whose preference sequence starts at
// want — so a test can aim traffic at a specific replica deterministically.
func keyWithPrimary(t *testing.T, c *Client, want string) []byte {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("aim-%d", i))
		if c.Ring().Lookup(k) == want {
			return k
		}
	}
	t.Fatalf("no key found with primary %s", want)
	return nil
}

// classifyDriven runs Classify on a goroutine and fires every timer the
// client parks on (backoff sleeps, hedge triggers) until the call returns.
// Tests that need to observe a parked timer before releasing it drive the
// clock themselves instead.
func classifyDriven(t *testing.T, c *Client, clk *manualClock, key, body []byte) (*Result, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := c.Classify(context.Background(), key, body)
		ch <- out{res, err}
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case o := <-ch:
			return o.res, o.err
		case <-deadline:
			t.Fatal("classify did not finish under a driven clock")
		default:
		}
		if clk.pending() > 0 {
			clk.Advance(time.Hour) // release whatever the client parked on
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func echoReplica(id string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"replica":%q}`, id)
	}
}

// TestClientRoutesByKey: the same routing key lands on the same replica on
// every call, the assignment matches the ring's Lookup, and a separately
// constructed client (same seed, same members) agrees — the cross-process
// determinism contract.
func TestClientRoutesByKey(t *testing.T) {
	var srvs []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(echoReplica(fmt.Sprintf("r%d", i)))
		t.Cleanup(s.Close)
		srvs = append(srvs, s)
		urls = append(urls, s.URL)
	}
	c, clk, _ := newFleetClient(t, Config{Seed: 9, HedgeDelay: -1}, urls...)
	c2, _, _ := newFleetClient(t, Config{Seed: 9, HedgeDelay: -1}, urls...)

	for i := 0; i < 60; i++ {
		key := []byte(fmt.Sprintf("patient-%03d", i))
		want := c.Ring().Lookup(key)
		res, err := classifyDriven(t, c, clk, key, []byte(`{"values":[1]}`))
		if err != nil {
			t.Fatalf("classify: %v", err)
		}
		if res.Replica != want {
			t.Fatalf("key %q served by %s, ring owner is %s", key, res.Replica, want)
		}
		res2, err := classifyDriven(t, c, clk, key, []byte(`{"values":[1]}`))
		if err != nil {
			t.Fatalf("classify again: %v", err)
		}
		if res2.Replica != res.Replica {
			t.Fatalf("key %q moved %s→%s between calls", key, res.Replica, res2.Replica)
		}
		if got := c2.Ring().Lookup(key); got != want {
			t.Fatalf("independent client routes %q to %s, first client to %s", key, got, want)
		}
	}
}

// TestClientRetriesFailoverAndEject: a replica answering 5xx is retried
// around (next replica in the key's ring sequence) and, at the eject
// threshold, ejected — after which requests skip it without burning a retry.
func TestClientRetriesFailoverAndEject(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	good := httptest.NewServer(echoReplica("good"))
	t.Cleanup(bad.Close)
	t.Cleanup(good.Close)

	// The driven clock jumps an hour per backoff; a huge probe interval
	// keeps the ejected replica's re-check from coming due before the
	// post-ejection assertion (the trial itself is covered by
	// TestEjectRecheckOneTrial).
	c, clk, reg := newFleetClient(t, Config{
		Seed:           1,
		HedgeDelay:     -1,
		EjectThreshold: 3,
		ProbeInterval:  1000 * time.Hour,
		Retry:          RetryPolicy{MaxAttempts: 2},
	}, bad.URL, good.URL)
	key := keyWithPrimary(t, c, bad.URL)

	for i := 0; i < 3; i++ {
		res, err := classifyDriven(t, c, clk, key, []byte(`{}`))
		if err != nil {
			t.Fatalf("classify %d: %v", i, err)
		}
		if res.Status != http.StatusOK || res.Replica != good.URL {
			t.Fatalf("classify %d: status=%d replica=%s, want 200 from %s", i, res.Status, res.Replica, good.URL)
		}
		if res.Retries != 1 {
			t.Fatalf("classify %d: retries=%d, want 1 (primary failed once)", i, res.Retries)
		}
	}
	if got := reg.Counter("fleet.ejections").Value(); got != 1 {
		t.Fatalf("fleet.ejections = %d after %d primary failures, want 1", got, 3)
	}
	sts := c.Statuses()
	for _, s := range sts {
		if s.Name == bad.URL && s.State != "down" {
			t.Fatalf("failing replica state = %s, want down", s.State)
		}
	}

	// Ejected: the next request goes straight to the healthy replica.
	res, err := classifyDriven(t, c, clk, key, []byte(`{}`))
	if err != nil {
		t.Fatalf("post-ejection classify: %v", err)
	}
	if res.Replica != good.URL || res.Retries != 0 {
		t.Fatalf("post-ejection: replica=%s retries=%d, want %s with 0 retries", res.Replica, res.Retries, good.URL)
	}
	if got := reg.Counter("fleet.retries").Value(); got != 3 {
		t.Fatalf("fleet.retries = %d, want 3", got)
	}
}

// TestClientHonorsRetryAfter: a 429 carrying Retry-After parks the retry
// for exactly the advertised delay — asserted on the recorded sleep, not
// wall time.
func TestClientHonorsRetryAfter(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	good := httptest.NewServer(echoReplica("good"))
	t.Cleanup(shedding.Close)
	t.Cleanup(good.Close)

	c, clk, reg := newFleetClient(t, Config{
		Seed:       1,
		HedgeDelay: -1,
		Retry:      RetryPolicy{MaxAttempts: 2, MaxBackoff: 10 * time.Second},
	}, shedding.URL, good.URL)
	key := keyWithPrimary(t, c, shedding.URL)

	res, err := classifyDriven(t, c, clk, key, []byte(`{}`))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if res.Replica != good.URL {
		t.Fatalf("served by %s, want failover to %s", res.Replica, good.URL)
	}
	sleeps := clk.sleeps()
	if len(sleeps) != 1 || sleeps[0] != 2*time.Second {
		t.Fatalf("recorded sleeps = %v, want exactly [2s] from the Retry-After hint", sleeps)
	}
	// 429 is shedding, not failure: it must not count toward ejection.
	if got := reg.Counter("fleet.ejections").Value(); got != 0 {
		t.Fatalf("fleet.ejections = %d after a 429, want 0", got)
	}
}

// TestClientRetryBudget: with the budget drained, retries stop — the
// request returns the last failure instead of amplifying the outage.
func TestClientRetryBudget(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)

	c, clk, reg := newFleetClient(t, Config{
		Seed:             1,
		HedgeDelay:       -1,
		Retry:            RetryPolicy{MaxAttempts: 5},
		RetryBudgetRatio: 0.001,
		RetryBudgetMax:   2,
	}, down.URL)

	res, err := classifyDriven(t, c, clk, []byte("k"), []byte(`{}`))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the last 503 passed through", res.Status)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (budget of 2 tokens)", res.Retries)
	}
	if got := reg.Counter("fleet.retry_budget_exhausted").Value(); got != 1 {
		t.Fatalf("fleet.retry_budget_exhausted = %d, want 1", got)
	}

	// Budget empty: the next failing request may not retry at all.
	res, err = classifyDriven(t, c, clk, []byte("k"), []byte(`{}`))
	if err != nil {
		t.Fatalf("classify 2: %v", err)
	}
	if res.Retries != 0 {
		t.Fatalf("retries with an empty budget = %d, want 0", res.Retries)
	}
}

// TestClientHedgeRescuesSlowPrimary: a primary that exceeds the hedge delay
// gets a second request sent to the key's backup replica; the backup's
// answer wins and the fleet counts the hedge.
func TestClientHedgeRescuesSlowPrimary(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, `{"replica":"slow"}`)
	}))
	fast := httptest.NewServer(echoReplica("fast"))
	t.Cleanup(func() { close(release); slow.Close() })
	t.Cleanup(fast.Close)

	c, clk, reg := newFleetClient(t, Config{
		Seed:       1,
		HedgeDelay: 50 * time.Millisecond,
	}, slow.URL, fast.URL)
	key := keyWithPrimary(t, c, slow.URL)

	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := c.Classify(context.Background(), key, []byte(`{}`))
		ch <- out{res, err}
	}()
	// The hedge timer is the only thing parked on the clock; firing it is
	// the one and only trigger for the second request.
	waitPending(t, clk, 1)
	clk.Advance(50 * time.Millisecond)
	o := <-ch
	if o.err != nil {
		t.Fatalf("classify: %v", o.err)
	}
	if !o.res.Hedged || o.res.Replica != fast.URL || o.res.Attempts != 2 || o.res.Retries != 0 {
		t.Fatalf("hedged=%v replica=%s attempts=%d retries=%d; want hedge win from %s",
			o.res.Hedged, o.res.Replica, o.res.Attempts, o.res.Retries, fast.URL)
	}
	if reg.Counter("fleet.hedges").Value() != 1 || reg.Counter("fleet.hedge_wins").Value() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1",
			reg.Counter("fleet.hedges").Value(), reg.Counter("fleet.hedge_wins").Value())
	}
}

// TestClientHedgeSuppressedByFault: the fleet.hedge fault site vetoes the
// hedge — the request sticks with the primary, proving the chaos hook can
// script hedging off deterministically.
func TestClientHedgeSuppressedByFault(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, `{"replica":"slow"}`)
	}))
	fast := httptest.NewServer(echoReplica("fast"))
	t.Cleanup(slow.Close)
	t.Cleanup(fast.Close)

	inj := fault.NewInjector(1)
	inj.Set("fleet.hedge", fault.Rule{Prob: 1, Err: errors.New("no hedge")})
	fault.Enable(inj)
	t.Cleanup(fault.Disable)

	c, clk, reg := newFleetClient(t, Config{
		Seed:       1,
		HedgeDelay: 50 * time.Millisecond,
	}, slow.URL, fast.URL)
	key := keyWithPrimary(t, c, slow.URL)

	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := c.Classify(context.Background(), key, []byte(`{}`))
		ch <- out{res, err}
	}()
	waitPending(t, clk, 1)
	clk.Advance(50 * time.Millisecond)
	// The suppressed hedge fired the fault site; only then release the
	// primary so the suppression demonstrably happened first.
	waitFor(t, func() bool { return inj.Counts()["fleet.hedge"].Fires == 1 })
	close(release)
	o := <-ch
	if o.err != nil {
		t.Fatalf("classify: %v", o.err)
	}
	if o.res.Hedged || o.res.Replica != slow.URL || o.res.Attempts != 1 {
		t.Fatalf("hedged=%v replica=%s attempts=%d; want un-hedged answer from the primary",
			o.res.Hedged, o.res.Replica, o.res.Attempts)
	}
	if got := reg.Counter("fleet.hedges").Value(); got != 0 {
		t.Fatalf("fleet.hedges = %d after suppression, want 0", got)
	}
}

// TestClientDialFault: the fleet.dial site fails an attempt before it
// reaches the wire; the retry succeeds — scripted connection failure,
// deterministic recovery.
func TestClientDialFault(t *testing.T) {
	good := httptest.NewServer(echoReplica("good"))
	t.Cleanup(good.Close)

	inj := fault.NewInjector(1)
	inj.Set("fleet.dial", fault.Rule{Prob: 1, MaxFires: 1, Err: errors.New("connection refused (injected)")})
	fault.Enable(inj)
	t.Cleanup(fault.Disable)

	c, clk, reg := newFleetClient(t, Config{Seed: 1, HedgeDelay: -1}, good.URL)
	res, err := classifyDriven(t, c, clk, []byte("k"), []byte(`{}`))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if res.Status != http.StatusOK || res.Retries != 1 {
		t.Fatalf("status=%d retries=%d, want recovery on the first retry", res.Status, res.Retries)
	}
	if got := inj.Counts()["fleet.dial"].Fires; got != 1 {
		t.Fatalf("fleet.dial fires = %d, want 1", got)
	}
	if got := reg.Counter("fleet.retries").Value(); got != 1 {
		t.Fatalf("fleet.retries = %d, want 1", got)
	}
}

// TestClientProbeEjectsAndRestores: active checking — a replica answering
// 503 on /readyz is routed around with zero retries wasted, and rejoins on
// its next healthy probe.
func TestClientProbeEjectsAndRestores(t *testing.T) {
	var draining atomic.Bool
	draining.Store(true)
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if draining.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
			} else {
				w.WriteHeader(http.StatusOK)
			}
			return
		}
		fmt.Fprint(w, `{"replica":"flappy"}`)
	}))
	steady := httptest.NewServer(echoReplica("steady"))
	t.Cleanup(flappy.Close)
	t.Cleanup(steady.Close)

	c, clk, reg := newFleetClient(t, Config{
		Seed:          1,
		HedgeDelay:    -1,
		ProbeInterval: time.Second,
	}, flappy.URL, steady.URL)
	key := keyWithPrimary(t, c, flappy.URL)

	c.ProbeOnce(context.Background())
	if got := reg.Counter("fleet.probe_notready").Value(); got != 1 {
		t.Fatalf("fleet.probe_notready = %d, want 1", got)
	}
	if got := reg.Counter("fleet.ejections").Value(); got != 1 {
		t.Fatalf("fleet.ejections = %d, want 1 (active ejection)", got)
	}
	if got := reg.Gauge("fleet.routable").Value(); got != 1 {
		t.Fatalf("fleet.routable = %d, want 1", got)
	}

	// The draining replica is skipped without burning a retry.
	res, err := classifyDriven(t, c, clk, key, []byte(`{}`))
	if err != nil {
		t.Fatalf("classify while draining: %v", err)
	}
	if res.Replica != steady.URL || res.Retries != 0 {
		t.Fatalf("replica=%s retries=%d, want %s with 0 retries", res.Replica, res.Retries, steady.URL)
	}

	// Drain ends; the next due probe restores it.
	draining.Store(false)
	clk.Advance(time.Second)
	c.ProbeOnce(context.Background())
	if got := reg.Counter("fleet.restores").Value(); got != 1 {
		t.Fatalf("fleet.restores = %d, want 1", got)
	}
	res, err = classifyDriven(t, c, clk, key, []byte(`{}`))
	if err != nil {
		t.Fatalf("classify after restore: %v", err)
	}
	if res.Replica != flappy.URL {
		t.Fatalf("replica=%s, want the restored primary %s", res.Replica, flappy.URL)
	}
}

// TestClientProbeDeadBackoff: an unreachable replica is ejected after
// EjectThreshold misses and its re-probe cadence backs off exponentially —
// the prober stops hammering a corpse.
func TestClientProbeDeadBackoff(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close() // nothing listens here now

	live := httptest.NewServer(echoReplica("live"))
	t.Cleanup(live.Close)

	c, clk, reg := newFleetClient(t, Config{
		Seed:           1,
		HedgeDelay:     -1,
		ProbeInterval:  time.Second,
		EjectThreshold: 2,
	}, deadURL, live.URL)
	ctx := context.Background()

	c.ProbeOnce(ctx) // miss 1: forgiven
	clk.Advance(time.Second)
	c.ProbeOnce(ctx) // miss 2: ejected
	if got := reg.Counter("fleet.probe_failures").Value(); got != 2 {
		t.Fatalf("fleet.probe_failures = %d, want 2", got)
	}
	if got := reg.Counter("fleet.ejections").Value(); got != 1 {
		t.Fatalf("fleet.ejections = %d, want 1", got)
	}

	// The first re-check comes one interval after the ejection; it fails,
	// so the next one backs off to 2·interval: one interval later the dead
	// replica is NOT due, and only the live replica is probed.
	clk.Advance(time.Second)
	c.ProbeOnce(ctx)
	if got := reg.Counter("fleet.probe_failures").Value(); got != 3 {
		t.Fatalf("fleet.probe_failures = %d after the first re-check, want 3", got)
	}
	probesBefore := reg.Counter("fleet.probes").Value()
	clk.Advance(time.Second)
	c.ProbeOnce(ctx)
	if got := reg.Counter("fleet.probes").Value() - probesBefore; got != 1 {
		t.Fatalf("probes in the backoff window = %d, want 1 (live replica only)", got)
	}
	clk.Advance(time.Second)
	c.ProbeOnce(ctx)
	if got := reg.Counter("fleet.probe_failures").Value(); got != 4 {
		t.Fatalf("fleet.probe_failures = %d after the backed-off re-probe, want 4", got)
	}

	// Requests still flow to the live replica.
	res, err := classifyDriven(t, c, clk, keyWithPrimary(t, c, deadURL), []byte(`{}`))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if res.Replica != live.URL {
		t.Fatalf("replica = %s, want %s", res.Replica, live.URL)
	}
}

// TestClientFailOpen: with every replica ejected the client sends anyway —
// probes can be wrong, and trying costs less than manufacturing an outage.
func TestClientFailOpen(t *testing.T) {
	// Healthy classify endpoint, but /readyz lies dead (500): the prober
	// ejects everyone while requests would actually succeed.
	confused := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			http.Error(w, "confused", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"replica":"confused"}`)
	}))
	t.Cleanup(confused.Close)

	c, clk, reg := newFleetClient(t, Config{
		Seed:           1,
		HedgeDelay:     -1,
		ProbeInterval:  time.Second,
		EjectThreshold: 1,
	}, confused.URL)
	c.ProbeOnce(context.Background())
	if got := reg.Gauge("fleet.routable").Value(); got != 0 {
		t.Fatalf("fleet.routable = %d, want 0", got)
	}

	res, err := classifyDriven(t, c, clk, []byte("k"), []byte(`{}`))
	if err != nil {
		t.Fatalf("fail-open classify: %v", err)
	}
	if res.Status != http.StatusOK {
		t.Fatalf("fail-open status = %d, want 200", res.Status)
	}
	if got := reg.Counter("fleet.fail_open").Value(); got == 0 {
		t.Fatal("fleet.fail_open = 0, want it counted")
	}
}

// TestClientSetReplicasLive: membership swaps reroute minimally and drop
// departed state.
func TestClientSetReplicasLive(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(echoReplica(fmt.Sprintf("r%d", i)))
		t.Cleanup(s.Close)
		urls = append(urls, s.URL)
	}
	c, clk, _ := newFleetClient(t, Config{Seed: 2, HedgeDelay: -1}, urls[0], urls[1])

	before := map[string]string{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%d", i)
		before[k] = c.Ring().Lookup([]byte(k))
	}
	c.SetReplicas(urls) // third replica joins
	if got := len(c.Statuses()); got != 3 {
		t.Fatalf("statuses after join = %d, want 3", got)
	}
	for k, owner := range before {
		now := c.Ring().Lookup([]byte(k))
		if now != owner && now != urls[2] {
			t.Fatalf("key %s moved %s→%s; only the joiner may claim keys", k, owner, now)
		}
	}
	res, err := classifyDriven(t, c, clk, keyWithPrimary(t, c, urls[2]), []byte(`{}`))
	if err != nil {
		t.Fatalf("classify to joined replica: %v", err)
	}
	if res.Replica != urls[2] {
		t.Fatalf("replica = %s, want the joiner %s", res.Replica, urls[2])
	}

	c.SetReplicas(urls[:1]) // everyone but r0 leaves
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if got := c.Ring().Lookup(k); got != urls[0] {
			t.Fatalf("after shrink, key %s routes to %s, want %s", k, got, urls[0])
		}
	}
}

// waitPending spins (bounded) until the manual clock holds n parked timers.
func waitPending(t *testing.T, clk *manualClock, n int) {
	t.Helper()
	waitFor(t, func() bool { return clk.pending() >= n })
}

// waitFor spins (bounded) until cond holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
