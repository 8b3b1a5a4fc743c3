package fleet

import (
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"
)

// TestBackoffJitterBounds: every draw falls in [0, min(MaxBackoff,
// Base·2ⁿ)], the ceiling actually grows per retry, and a fixed seed draws a
// fixed schedule.
func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second}.withDefaults()
	for retry := 1; retry <= 12; retry++ {
		ceil := p.BaseBackoff << uint(retry)
		if ceil > p.MaxBackoff || ceil <= 0 {
			ceil = p.MaxBackoff
		}
		rng := rand.New(rand.NewSource(99))
		sawUpper := false
		for i := 0; i < 200; i++ {
			d := p.backoff(retry, rng, 0)
			if d < 0 || d > ceil {
				t.Fatalf("retry %d: backoff %v outside [0, %v]", retry, d, ceil)
			}
			if d > ceil/2 {
				sawUpper = true
			}
		}
		if !sawUpper {
			t.Errorf("retry %d: 200 draws never exceeded half the ceiling; jitter range looks wrong", retry)
		}
	}

	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 1; i < 20; i++ {
		if da, db := p.backoff(i, a, 0), p.backoff(i, b, 0); da != db {
			t.Fatalf("same seed drew %v vs %v at retry %d; backoff is not deterministic", da, db, i)
		}
	}
}

// TestBackoffHonorsRetryAfterHint: a server hint overrides the jittered
// draw but stays capped at MaxBackoff.
func TestBackoffHonorsRetryAfterHint(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Second}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	if got := p.backoff(1, rng, 3*time.Second); got != 3*time.Second {
		t.Errorf("hint 3s → backoff %v, want exactly 3s", got)
	}
	if got := p.backoff(1, rng, time.Hour); got != p.MaxBackoff {
		t.Errorf("hostile hint 1h → backoff %v, want capped %v", got, p.MaxBackoff)
	}
}

// TestRetryAfterHintParsing: delta-seconds only; absent, malformed, and
// negative values mean no hint.
func TestRetryAfterHintParsing(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{"0", 0},
		{"-2", 0},
		{"soon", 0},
		{"Tue, 03 Jun 2008 11:05:30 GMT", 0}, // HTTP-date form: ignored
	}
	for _, c := range cases {
		if got := retryAfterHint(mk(c.in)); got != c.want {
			t.Errorf("retryAfterHint(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := retryAfterHint(nil); got != 0 {
		t.Errorf("retryAfterHint(nil) = %v, want 0", got)
	}
}

// TestRetryBudget: the bucket starts full, withdrawals spend whole tokens,
// deposits credit Ratio per first attempt capped at Max — so sustained
// failure throttles retries to Ratio of traffic instead of amplifying it.
func TestRetryBudget(t *testing.T) {
	b := newRetryBudget(0.5, 2)
	if !b.withdraw() || !b.withdraw() {
		t.Fatal("fresh budget refused its initial tokens")
	}
	if b.withdraw() {
		t.Fatal("empty budget allowed a retry")
	}
	b.deposit() // +0.5: still below one whole token
	if b.withdraw() {
		t.Fatal("half a token allowed a retry")
	}
	b.deposit() // 1.0
	if !b.withdraw() {
		t.Fatal("a whole deposited token refused a retry")
	}
	for i := 0; i < 100; i++ {
		b.deposit()
	}
	if !b.withdraw() || !b.withdraw() {
		t.Fatal("budget did not refill to max")
	}
	if b.withdraw() {
		t.Fatal("budget exceeded its max")
	}
}

// TestManualClock: the test clock itself — sleeps and timers fire on
// Advance, never before, and durations are recorded in order.
func TestManualClock(t *testing.T) {
	clk := newManualClock()
	done := make(chan error, 1)
	go func() { done <- clk.Sleep(t.Context(), 100*time.Millisecond) }()
	for clk.pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(99 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("sleep returned before its deadline")
	default:
	}
	clk.Advance(time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("sleep returned %v", err)
	}
	if s := clk.sleeps(); len(s) != 1 || s[0] != 100*time.Millisecond {
		t.Fatalf("recorded sleeps = %v", s)
	}

	ch, cancel := clk.After(50 * time.Millisecond)
	defer cancel()
	clk.Advance(50 * time.Millisecond)
	select {
	case <-ch:
	default:
		t.Fatal("After timer did not fire at its deadline")
	}
}

// TestLatencyTrackerP99: below the sample floor the tracker abstains; above
// it the p99 reflects the tail.
func TestLatencyTrackerP99(t *testing.T) {
	lt := newLatencyTracker()
	for i := 0; i < latencyMinSamples-1; i++ {
		lt.record(time.Millisecond)
	}
	if got := lt.p99(); got != 0 {
		t.Fatalf("p99 with %d samples = %v, want 0 (abstain)", latencyMinSamples-1, got)
	}
	lt.record(time.Millisecond)
	if got := lt.p99(); got != time.Millisecond {
		t.Fatalf("uniform p99 = %v, want 1ms", got)
	}
	for i := 0; i < 99; i++ {
		lt.record(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		lt.record(time.Second) // ~4% tail outliers
	}
	if got := lt.p99(); got != time.Second {
		t.Fatalf("p99 with 1s tail outliers = %v; tail not reflected", got)
	}
}

// TestLatencyTrackerP99MatchesSort pins the one-pass p99 to the sort it
// replaced: for random windows at every fill level from the sample floor to
// a full window, and for rings that wrapped, it returns the sorted window's
// element (n−1)·99/100, and it allocates nothing.
func TestLatencyTrackerP99MatchesSort(t *testing.T) {
	sortedP99 := func(window []int64) time.Duration {
		tmp := append([]int64(nil), window...)
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		return time.Duration(tmp[(len(tmp)-1)*99/100])
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		// Few distinct values make ties; a wide range makes a long tail.
		span := int64(1 + r.Intn(1000))
		if trial%2 == 1 {
			span = 5
		}
		lt := newLatencyTracker()
		var recorded []int64
		for n := 1; n <= 3*latencyWindow+7; n++ {
			v := r.Int63n(span) * int64(time.Microsecond)
			lt.record(time.Duration(v))
			recorded = append(recorded, v)
			if n < latencyMinSamples {
				continue
			}
			window := recorded[max(0, len(recorded)-latencyWindow):]
			if got, want := lt.p99(), sortedP99(window); got != want {
				t.Fatalf("trial %d, %d samples recorded: p99 %v, sorted window %v", trial, n, got, want)
			}
		}
	}
	lt := newLatencyTracker()
	for i := 0; i < latencyWindow; i++ {
		lt.record(time.Duration(r.Int63n(1e6)))
	}
	if a := testing.AllocsPerRun(100, func() { lt.p99() }); a != 0 {
		t.Fatalf("p99 allocates %v per call, want 0", a)
	}
}
