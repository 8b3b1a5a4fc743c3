package fleet

import (
	"context"
	"math"
	"sync"
	"time"
)

// clock abstracts time for the retry/hedge/probe machinery so every suite
// asserts on scripted time, never wall-clock sleeps. The production clock
// is the real one; tests install a manual clock and advance it explicitly.
type clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
	// After returns a channel that fires once after d, plus a cancel that
	// releases the timer early.
	After(d time.Duration) (<-chan time.Time, func())
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (realClock) After(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// manualClock is the test clock: time moves only via Advance, sleeps and
// timers fire when the clock passes them, and every requested duration is
// recorded so tests assert the schedule itself.
type manualClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
	// slept records every Sleep duration in request order.
	slept []time.Duration
}

type manualWaiter struct {
	at time.Time
	ch chan time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1700000000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	if d <= 0 {
		c.mu.Unlock()
		return ctx.Err()
	}
	w := &manualWaiter{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *manualClock) After(d time.Duration) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &manualWaiter{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- c.now
		return w.ch, func() {}
	}
	c.waiters = append(c.waiters, w)
	return w.ch, func() {}
}

// Advance moves time forward and fires every waiter that came due.
func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var due, rest []*manualWaiter
	for _, w := range c.waiters {
		if !now.Before(w.at) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	c.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

// pending reports how many timers/sleeps are waiting on an Advance; tests
// use it to know a goroutine has reached its sleep before advancing.
func (c *manualClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// sleeps snapshots the recorded Sleep durations.
func (c *manualClock) sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.slept))
	copy(out, c.slept)
	return out
}

// latencyTracker keeps a ring of recent successful-attempt latencies and
// derives the hedge delay from their p99: hedging should fire only for the
// slowest tail, not double every request.
type latencyTracker struct {
	mu  sync.Mutex
	buf []int64
	idx int
	n   int
}

// latencyWindow is how many recent latencies inform the p99; small enough
// to track a shifting tail, large enough for a stable 99th.
const latencyWindow = 256

// latencyMinSamples gates the derived delay: below it the configured
// default applies.
const latencyMinSamples = 16

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{buf: make([]int64, latencyWindow)}
}

func (l *latencyTracker) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = int64(d)
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// latencyAbove is how many samples of a full window rank above its p99.
const latencyAbove = (latencyWindow - 1) - (latencyWindow-1)*99/100

// p99 returns the 99th percentile of the window, its sample of rank
// (n−1)·99/100 in ascending order, or 0 with fewer than latencyMinSamples
// observations. At most latencyAbove samples rank above it, so one pass
// that keeps the largest few finds it without copying or sorting.
func (l *latencyTracker) p99() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < latencyMinSamples {
		return 0
	}
	k := (l.n - 1) - (l.n-1)*99/100
	var top [latencyAbove + 1]int64 // the k+1 largest so far, descending
	for i := range top {
		top[i] = math.MinInt64
	}
	for _, v := range l.buf[:l.n] {
		if v <= top[k] {
			continue
		}
		i := k
		for ; i > 0 && top[i-1] < v; i-- {
			top[i] = top[i-1]
		}
		top[i] = v
	}
	return time.Duration(top[k])
}
