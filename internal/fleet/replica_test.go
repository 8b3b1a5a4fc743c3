package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bstc/internal/obs"
)

// healthFixture returns the health state of a one-replica client on the
// manual clock, with the clock and the client's registry. Nothing goes on
// the wire: tests feed the verdicts directly.
func healthFixture(t *testing.T, cfg Config) (*replica, *manualClock, *obs.Registry) {
	t.Helper()
	c, clk, reg := newFleetClient(t, cfg, "http://x")
	return c.replicaFor("http://x"), clk, reg
}

// switchReplica answers /readyz and /v1/classify with whatever statuses the
// test last stored.
func switchReplica(t *testing.T) (url string, readyz, classify *atomic.Int32) {
	t.Helper()
	readyz, classify = new(atomic.Int32), new(atomic.Int32)
	readyz.Store(http.StatusOK)
	classify.Store(http.StatusOK)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(int(readyz.Load()))
			return
		}
		w.WriteHeader(int(classify.Load()))
	}))
	t.Cleanup(srv.Close)
	return srv.URL, readyz, classify
}

// stalledReplica never answers; its handlers return when the test ends.
func stalledReplica(t *testing.T) string {
	t.Helper()
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stop
	}))
	t.Cleanup(func() { close(stop); srv.Close() })
	return srv.URL
}

// TestEjectAtThreshold: EjectThreshold failures in a row take a replica
// down whether requests, probes or both deliver them, and a success in
// between starts the count over.
func TestEjectAtThreshold(t *testing.T) {
	for _, tc := range []struct {
		name string
		feed string // r: a failed request, p: a failed probe, s: a successful request
	}{
		{"requests", "rrr"},
		{"probes", "ppp"},
		{"mixed", "prp"},
		{"success resets", "rpsrpr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, readyz, classify := switchReplica(t)
			readyz.Store(http.StatusInternalServerError)
			c, _, reg := newFleetClient(t, Config{
				Seed:           1,
				HedgeDelay:     -1,
				EjectThreshold: 3,
				Retry:          RetryPolicy{MaxAttempts: 1},
			}, url)
			for i, step := range tc.feed {
				if step == 'p' {
					c.ProbeOnce(context.Background())
				} else {
					status := http.StatusInternalServerError
					if step == 's' {
						status = http.StatusOK
					}
					classify.Store(int32(status))
					if _, err := c.Classify(context.Background(), []byte("k"), []byte(`{}`)); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				want := "up"
				if i == len(tc.feed)-1 {
					want = "down"
				}
				if got := c.Statuses()[0].State; got != want {
					t.Fatalf("after %q: state %s, want %s", tc.feed[:i+1], got, want)
				}
			}
			if got := reg.Counter("fleet.ejections").Value(); got != 1 {
				t.Fatalf("fleet.ejections = %d, want 1", got)
			}
		})
	}
}

// TestEjectRecheckOneTrial: a down replica's due re-check goes to exactly
// one caller — a trial request or the prober, whichever claims it first —
// and to no one else until that check's verdict.
func TestEjectRecheckOneTrial(t *testing.T) {
	r, clk, _ := healthFixture(t, Config{EjectThreshold: 2, ProbeInterval: time.Second})
	r.fail(clk.Now(), false)
	r.fail(clk.Now(), false)
	if ok, _ := r.admit(clk.Now()); ok || r.due(clk.Now()) {
		t.Fatal("down replica checked before its re-check came due")
	}

	clk.Advance(time.Second)
	if ok, trial := r.admit(clk.Now()); !ok || !trial {
		t.Fatalf("due re-check: admit = %v, %v; want a trial", ok, trial)
	}
	if ok, _ := r.admit(clk.Now()); ok {
		t.Fatal("second caller admitted while the trial is in flight")
	}
	if r.due(clk.Now()) {
		t.Fatal("prober claimed a re-check the trial holds")
	}

	// The trial fails; the next check is the prober's.
	r.fail(clk.Now(), true)
	clk.Advance(2 * time.Second)
	if !r.due(clk.Now()) {
		t.Fatal("prober did not claim the due re-check")
	}
	if ok, _ := r.admit(clk.Now()); ok {
		t.Fatal("trial admitted while the probe holds the re-check")
	}
	// A request sent before the ejection fails late: it is not the check.
	r.fail(clk.Now(), false)
	if ok, _ := r.admit(clk.Now()); ok || r.due(clk.Now()) {
		t.Fatal("a failure that was not the check released it")
	}
	r.succeed()
	if ok, trial := r.admit(clk.Now()); !ok || trial {
		t.Fatalf("restored replica: admit = %v, %v; want a plain admission", ok, trial)
	}
}

// TestEjectRecheckBackoff: the first re-check is due ProbeInterval after
// the replica goes down, and each failed re-check, a probe's or a trial
// request's, doubles the delay up to 32 × ProbeInterval. Failures that are
// not the check leave the schedule alone.
func TestEjectRecheckBackoff(t *testing.T) {
	const interval = time.Second
	r, clk, _ := healthFixture(t, Config{EjectThreshold: 1, ProbeInterval: interval})
	trial := func(now time.Time) bool { ok, _ := r.admit(now); return ok }
	r.fail(clk.Now(), false)
	for i, mult := range []time.Duration{1, 2, 4, 8, 16, 32, 32, 32} {
		r.fail(clk.Now(), false) // a request sent before the ejection fails late
		check := r.due
		if i%2 == 1 {
			check = trial
		}
		clk.Advance(mult*interval - time.Millisecond)
		if check(clk.Now()) {
			t.Fatalf("check %d claimed before %v", i+1, mult*interval)
		}
		clk.Advance(time.Millisecond)
		if !check(clk.Now()) {
			t.Fatalf("check %d not due after %v", i+1, mult*interval)
		}
		r.fail(clk.Now(), true)
	}
}

// TestProbeNotReadyVsDead: a 503 on /readyz makes a replica draining — out
// of rotation, probed every cycle, never sent a trial request — while dead
// probes (a 404 among them: every replica serves /readyz) take it down,
// after which it is probed only when its re-check is due.
func TestProbeNotReadyVsDead(t *testing.T) {
	url, readyz, _ := switchReplica(t)
	readyz.Store(http.StatusServiceUnavailable)
	c, clk, reg := newFleetClient(t, Config{
		Seed:           1,
		HedgeDelay:     -1,
		EjectThreshold: 2,
		ProbeInterval:  time.Second,
	}, url)
	r := c.replicaFor(url)
	ctx := context.Background()
	for i := int64(1); i <= 3; i++ {
		c.ProbeOnce(ctx)
		if got := reg.Counter("fleet.probes").Value(); got != i {
			t.Fatalf("fleet.probes = %d, want %d: a draining replica is probed every cycle", got, i)
		}
		if st := r.status(); st.State != "draining" || st.Routable {
			t.Fatalf("after a 503: %+v, want draining and unroutable", st)
		}
		if ok, _ := r.admit(clk.Now()); ok {
			t.Fatal("draining replica admitted a request")
		}
		clk.Advance(time.Hour)
	}
	if got := reg.Counter("fleet.probe_notready").Value(); got != 3 {
		t.Fatalf("fleet.probe_notready = %d, want 3", got)
	}

	readyz.Store(http.StatusNotFound)
	c.ProbeOnce(ctx)
	c.ProbeOnce(ctx)
	if st := r.status(); st.State != "down" {
		t.Fatalf("after EjectThreshold 404 probes: %+v, want down", st)
	}
	probes := reg.Counter("fleet.probes").Value()
	clk.Advance(time.Second - time.Millisecond)
	c.ProbeOnce(ctx)
	if got := reg.Counter("fleet.probes").Value(); got != probes {
		t.Fatal("down replica probed before its re-check came due")
	}
	clk.Advance(time.Millisecond)
	c.ProbeOnce(ctx)
	if got := reg.Counter("fleet.probes").Value(); got != probes+1 {
		t.Fatal("down replica not probed when its re-check came due")
	}
	if got := reg.Counter("fleet.probe_failures").Value(); got != 3 {
		t.Fatalf("fleet.probe_failures = %d, want 3", got)
	}
}

// TestEjectAnySuccessRestores: a success from either source brings a
// replica back up — a trial request or a probe when it is down, even a
// fail-open request when it is draining — and starts the failure count
// over.
func TestEjectAnySuccessRestores(t *testing.T) {
	url, readyz, classify := switchReplica(t)
	c, clk, reg := newFleetClient(t, Config{
		Seed:           1,
		HedgeDelay:     -1,
		EjectThreshold: 2,
		ProbeInterval:  time.Second,
		Retry:          RetryPolicy{MaxAttempts: 1},
	}, url)
	r := c.replicaFor(url)
	ctx := context.Background()
	request := func(status int) {
		t.Helper()
		classify.Store(int32(status))
		if _, err := c.Classify(ctx, []byte("k"), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(step, state string, restores int64) {
		t.Helper()
		if got := r.status().State; got != state {
			t.Fatalf("%s: state %s, want %s", step, got, state)
		}
		if got := reg.Counter("fleet.restores").Value(); got != restores {
			t.Fatalf("%s: fleet.restores = %d, want %d", step, got, restores)
		}
	}

	request(http.StatusInternalServerError)
	request(http.StatusInternalServerError)
	expect("two failed requests", "down", 0)
	clk.Advance(time.Second)
	request(http.StatusOK)
	expect("trial request answered", "up", 1)

	readyz.Store(http.StatusInternalServerError)
	c.ProbeOnce(ctx)
	c.ProbeOnce(ctx)
	expect("two dead probes", "down", 1)
	readyz.Store(http.StatusOK)
	clk.Advance(time.Second)
	c.ProbeOnce(ctx)
	expect("ready probe", "up", 2)

	readyz.Store(http.StatusServiceUnavailable)
	c.ProbeOnce(ctx)
	expect("503 probe", "draining", 2)
	request(http.StatusOK)
	expect("fail-open request answered", "up", 3)

	request(http.StatusInternalServerError)
	expect("one failure after the restore", "up", 3)
}

// TestEjectCountsTransitionsOnce: fleet.ejections counts each move out of
// rotation and fleet.restores each move back in, once, however often later
// verdicts repeat the state.
func TestEjectCountsTransitionsOnce(t *testing.T) {
	r, clk, reg := healthFixture(t, Config{EjectThreshold: 2, ProbeInterval: time.Second})
	failedCheck := func() {
		clk.Advance(time.Hour)
		if !r.due(clk.Now()) {
			t.Fatal("re-check not due after an hour")
		}
		r.fail(clk.Now(), true)
	}
	fail := func() { r.fail(clk.Now(), false) }
	for i, step := range []struct {
		name                string
		do                  func()
		ejections, restores int64
	}{
		{"first failure", fail, 0, 0},
		{"threshold failure: up → down", fail, 1, 0},
		{"failure while down", fail, 1, 0},
		{"failed re-check", failedCheck, 1, 0},
		{"503 while down", r.drain, 1, 0},
		{"503 while draining", r.drain, 1, 0},
		{"success: draining → up", r.succeed, 1, 1},
		{"success while up", r.succeed, 1, 1},
		{"503: up → draining", r.drain, 2, 1},
		{"dead probe while draining", func() { r.fail(clk.Now(), true) }, 2, 1},
		{"dead probe: draining → down", func() { r.fail(clk.Now(), true) }, 2, 1},
		{"success: down → up", r.succeed, 2, 2},
	} {
		step.do()
		ej, re := reg.Counter("fleet.ejections").Value(), reg.Counter("fleet.restores").Value()
		if ej != step.ejections || re != step.restores {
			t.Fatalf("step %d (%s): ejections=%d restores=%d, want %d/%d",
				i+1, step.name, ej, re, step.ejections, step.restores)
		}
	}
	if got := r.status().State; got != "up" {
		t.Fatalf("final state %s, want up", got)
	}
}

// TestEjectIgnoresCallerGiveUp: an attempt cut short by the caller's own
// deadline says nothing about the replica: EjectThreshold give-ups leave it
// up, and a trial given up is released for the next caller. EjectThreshold
// attempt timeouts still eject it.
func TestEjectIgnoresCallerGiveUp(t *testing.T) {
	stalled := stalledReplica(t)
	call := func(c *Client, wait time.Duration) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		defer cancel()
		if _, err := c.Classify(ctx, []byte("k"), []byte(`{}`)); err == nil {
			t.Fatal("a call to a stalled replica succeeded")
		}
	}
	cfg := Config{Seed: 1, HedgeDelay: -1, EjectThreshold: 3, ProbeInterval: time.Second,
		Retry: RetryPolicy{MaxAttempts: 1}}

	c, clk, reg := newFleetClient(t, cfg, stalled)
	r := c.replicaFor(stalled)
	for i := 0; i < cfg.EjectThreshold; i++ {
		call(c, 20*time.Millisecond)
	}
	if st, ej := r.status().State, reg.Counter("fleet.ejections").Value(); st != "up" || ej != 0 {
		t.Fatalf("after %d caller give-ups: state %s, fleet.ejections %d; want up, 0", cfg.EjectThreshold, st, ej)
	}
	for i := 0; i < cfg.EjectThreshold; i++ {
		r.fail(clk.Now(), false)
	}
	clk.Advance(time.Second)
	call(c, 20*time.Millisecond) // the caller gives up on the trial
	if ok, trial := r.admit(clk.Now()); !ok || !trial {
		t.Fatalf("after a given-up trial: admit = %v, %v; want the re-check claimable again", ok, trial)
	}

	cfg.AttemptTimeout = 20 * time.Millisecond
	c, _, reg = newFleetClient(t, cfg, stalled)
	for i := 0; i < cfg.EjectThreshold; i++ {
		call(c, time.Minute)
	}
	if st, ej := c.Statuses()[0].State, reg.Counter("fleet.ejections").Value(); st != "down" || ej != 1 {
		t.Fatalf("after %d attempt timeouts: state %s, fleet.ejections %d; want down, 1", cfg.EjectThreshold, st, ej)
	}
}

// TestHedgeWinReleasesTrial: a down replica's trial request that loses to a
// hedge is released unjudged, so the re-check can be claimed again; with no
// prober running, nothing else would ever bring the replica back.
func TestHedgeWinReleasesTrial(t *testing.T) {
	stalled := stalledReplica(t)
	fast := httptest.NewServer(echoReplica("fast"))
	t.Cleanup(fast.Close)

	c, clk, _ := newFleetClient(t, Config{
		Seed:           1,
		HedgeDelay:     50 * time.Millisecond,
		EjectThreshold: 1,
		ProbeInterval:  time.Second,
	}, stalled, fast.URL)
	r := c.replicaFor(stalled)
	r.fail(clk.Now(), false)
	clk.Advance(time.Second)

	type out struct {
		res *Result
		err error
	}
	key := keyWithPrimary(t, c, stalled)
	ch := make(chan out, 1)
	go func() {
		res, err := c.Classify(context.Background(), key, []byte(`{}`))
		ch <- out{res, err}
	}()
	waitPending(t, clk, 1)
	clk.Advance(50 * time.Millisecond)
	o := <-ch
	if o.err != nil {
		t.Fatalf("classify: %v", o.err)
	}
	if !o.res.Hedged || o.res.Replica != fast.URL {
		t.Fatalf("hedged=%v replica=%s; want the hedge to %s to win", o.res.Hedged, o.res.Replica, fast.URL)
	}
	if st := r.status(); st.State != "down" {
		t.Fatalf("trial judged despite losing the race: %+v", st)
	}
	if ok, trial := r.admit(clk.Now()); !ok || !trial {
		t.Fatalf("after the hedge won: admit = %v, %v; want the re-check claimable again", ok, trial)
	}
}
