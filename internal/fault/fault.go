// Package fault is the repository's resilience substrate: the typed
// cancellation errors every miner surfaces when a context stops it, panic
// capture for worker pools (a recovered panic becomes an inspectable error
// carrying its stack instead of killing the process), and a deterministic
// fault-injection harness for chaos tests.
//
// The injection side is nil-safe and free when disarmed: production code
// calls Hit(site) at amortized intervals (the same cadence as mining
// deadline polls); with no injector enabled that is a single atomic pointer
// load. Chaos tests arm a seeded Injector with per-site rules — an error to
// return, a panic to throw, latency to add, a probability and fire budget —
// and assert that the system degrades (DNF records, 5xx responses, drained
// batches) instead of crashing. The same seed reproduces the same fault
// schedule, so chaos failures replay.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDeadline reports that a context deadline stopped the work. It wraps
// context.DeadlineExceeded, so errors.Is matches either name. Harnesses
// record it as a DNF outcome (the paper's cutoff semantics), never as a
// crash.
var ErrDeadline = fmt.Errorf("fault: deadline exceeded: %w", context.DeadlineExceeded)

// ErrCanceled reports that the caller canceled the work. It wraps
// context.Canceled.
var ErrCanceled = fmt.Errorf("fault: canceled: %w", context.Canceled)

// CtxErr maps ctx.Err() to the package's typed errors: ErrDeadline for an
// expired deadline, ErrCanceled for cancellation, nil for a live (or nil)
// context. Hot loops call it at amortized intervals; the live-context cost
// is one atomic load inside ctx.Err.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return ErrCanceled
	}
}

// IsCancellation reports whether err is one of the typed cancellation
// outcomes (deadline or cancel), directly or wrapped.
func IsCancellation(err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(err, ErrCanceled)
}

// PanicError is a panic recovered at a worker-pool boundary: the panic
// value plus the goroutine stack captured at recovery, tagged with the site
// that contained it. Pools return it as an ordinary error so one poisoned
// fold, stripe or batch degrades to a failed record instead of killing the
// process.
type PanicError struct {
	// Site names the recovery boundary ("eval.cv", "discretize.fit",
	// "serve.batch", ...).
	Site string
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Site, e.Value)
}

// AsPanic unwraps err to a *PanicError, if it is (or wraps) one.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// Recovered converts a non-nil recover() value into a *PanicError with the
// current goroutine's stack. Use at worker-pool boundaries:
//
//	defer func() {
//		if r := recover(); r != nil {
//			err = fault.Recovered("eval.fold", r)
//		}
//	}()
func Recovered(site string, v any) *PanicError {
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &PanicError{Site: site, Value: v, Stack: buf}
}

// Rule configures one site's injection. Exactly one of Err and Panic
// usually carries the fault; Latency composes with either (the sleep
// happens first). The zero Rule fires nothing.
type Rule struct {
	// Prob is the per-hit firing probability; 1 fires on every eligible
	// hit, 0 never fires.
	Prob float64
	// SkipHits exempts the first n hits of the site (fire mid-run, not at
	// the first poll).
	SkipHits int
	// MaxFires bounds how many times the rule fires; 0 is unlimited.
	MaxFires int
	// Err, when non-nil, is returned by Hit on fire.
	Err error
	// Panic, when non-empty, makes Hit panic with this message on fire.
	Panic string
	// Latency, when positive, makes Hit sleep this long on fire.
	Latency time.Duration
}

// SiteCount reports one site's traffic: every Hit call and how many fired.
type SiteCount struct {
	Hits  int64
	Fires int64
}

type siteState struct {
	rule  Rule
	hits  int64
	fires int64
}

// Injector holds seeded per-site rules. Arm it globally with Enable; the
// zero-value (or nil) Injector never fires.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[string]*siteState
}

// NewInjector returns an injector whose probabilistic rules draw from a
// deterministic seeded stream, so a chaos run replays exactly under the
// same seed and hit order.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), sites: map[string]*siteState{}}
}

// Set installs (or replaces) the rule for site, resetting its counters.
func (in *Injector) Set(site string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sites[site] = &siteState{rule: r}
}

// Counts snapshots per-site hit/fire counters for every site with a rule.
func (in *Injector) Counts() map[string]SiteCount {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]SiteCount, len(in.sites))
	for name, st := range in.sites {
		out[name] = SiteCount{Hits: st.hits, Fires: st.fires}
	}
	return out
}

// hit evaluates the site's rule. It returns the rule's error, panics, or
// sleeps, per the rule; nil otherwise.
func (in *Injector) hit(site string) error {
	in.mu.Lock()
	st, ok := in.sites[site]
	if !ok {
		in.mu.Unlock()
		return nil
	}
	st.hits++
	r := st.rule
	fire := st.hits > int64(r.SkipHits) &&
		(r.MaxFires == 0 || st.fires < int64(r.MaxFires)) &&
		r.Prob > 0 && (r.Prob >= 1 || in.rng.Float64() < r.Prob)
	if fire {
		st.fires++
	}
	in.mu.Unlock()
	if !fire {
		return nil
	}
	if r.Latency > 0 {
		time.Sleep(r.Latency)
	}
	if r.Panic != "" {
		panic(fmt.Sprintf("fault injected at %s: %s", site, r.Panic))
	}
	return r.Err
}

// active is the globally armed injector; nil means every Hit is a no-op.
var active atomic.Pointer[Injector]

// Enable arms in as the process-wide injector. Production never calls it;
// chaos tests arm a seeded injector and defer Disable.
func Enable(in *Injector) { active.Store(in) }

// Disable disarms injection.
func Disable() { active.Store(nil) }

// Hit evaluates the armed injector's rule for site. With no injector armed
// it is a single atomic load — cheap enough for amortized hot-loop checks.
// It may return an error to propagate, panic (exercising the caller's
// containment), or sleep, per the site's rule.
func Hit(site string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.hit(site)
}
