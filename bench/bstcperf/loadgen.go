package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bstc/internal/obs/trace"
	"bstc/internal/serve"
)

// shot is one classify request's outcome. due is when the schedule wanted
// it sent, sent when it left, done when its answer (or error) arrived.
type shot struct {
	row             int
	due, sent, done time.Time
	err             string // a transport error, a non-200 or an undecodable answer
	class           int
	confidence      float64
}

// latency runs from the due time, so time spent waiting for a free slot
// counts against the request.
func (s shot) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the request left.
func (s shot) late() time.Duration { return s.sent.Sub(s.due) }

// loadgen sends classify requests for pooled rows to one URL, never with
// more than limit in flight; the transport holds at most limit connections.
type loadgen struct {
	client *http.Client
	url    string
	bodies [][]byte
	limit  int
	seed   int64
}

func newLoadgen(url string, bodies [][]byte, limit int, seed int64) *loadgen {
	return &loadgen{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     limit,
				MaxIdleConnsPerHost: limit,
			},
		},
		url:    url,
		bodies: bodies,
		limit:  limit,
		seed:   seed,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// arrivals is an open-loop schedule: send offsets from the phase start and
// the pooled row each arrival sends.
type arrivals struct {
	at   []time.Duration
	rows []int
}

// poisson draws a Poisson schedule at rate arrivals per second over d from
// rng, so a seed fixes both the schedule and the row order. Rows follow
// successive random permutations of the pool, so every row is sent equally
// often (±1) and the phase's mix of row costs does not vary with the seed.
func poisson(rng *rand.Rand, rate float64, d time.Duration, rows int) arrivals {
	var a arrivals
	var t time.Duration
	var perm []int
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return a
		}
		if len(perm) == 0 {
			perm = rng.Perm(rows)
		}
		a.at = append(a.at, t)
		a.rows = append(a.rows, perm[0])
		perm = perm[1:]
	}
}

// open sends a schedule open-loop: each request leaves at its due time, or
// as soon after it as a slot under the in-flight cap frees. phase names the
// requests' routing keys; traced requests carry a sampled traceparent.
func (g *loadgen) open(ctx context.Context, phase string, a arrivals, traced bool) []shot {
	shots := make([]shot, len(a.at))
	slots := make(chan struct{}, g.limit) // semaphore: one token per request in flight
	var wg sync.WaitGroup
	start := time.Now()
	for i := range a.at {
		due := start.Add(a.at[i])
		if !sleepUntil(ctx, due) {
			shots = shots[:i]
			break
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			shots = shots[:i]
			break
		}
		shots[i] = shot{row: a.rows[i], due: due}
		wg.Add(1)
		go func(s *shot, key string) {
			defer wg.Done()
			g.fire(ctx, s, key, traced)
			<-slots
		}(&shots[i], g.key(phase, i))
	}
	wg.Wait()
	return shots
}

// closed runs clients back-to-back callers for d — each sends its next
// request when its previous answer arrives — cycling through order. wall
// runs until the last answer.
func (g *loadgen) closed(ctx context.Context, phase string, clients int, d time.Duration, order []int, traced bool) (shots []shot, wall time.Duration) {
	var next atomic.Int64
	per := make([][]shot, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				s := shot{row: order[i%len(order)], due: time.Now()}
				g.fire(ctx, &s, g.key(phase, i), traced)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, p := range per {
		shots = append(shots, p...)
	}
	return shots, wall
}

// key is request i's routing key: fixed by seed, phase and position.
func (g *loadgen) key(phase string, i int) string {
	return fmt.Sprintf("bstcperf-%d-%s-%d", g.seed, phase, i)
}

// fire sends one request and records its outcome in s.
func (g *loadgen) fire(ctx context.Context, s *shot, key string, traced bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/classify", bytes.NewReader(g.bodies[s.row]))
	if err != nil {
		s.sent, s.done, s.err = time.Now(), time.Now(), err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RoutingKeyHeader, key)
	if traced {
		trace.Inject(req.Header, traceContext(key))
	}
	s.sent = time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		s.done, s.err = time.Now(), err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	switch {
	case err != nil:
		s.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
	default:
		var out serve.Response
		if err := json.Unmarshal(body, &out); err != nil {
			s.err = "decoding answer: " + err.Error()
			return
		}
		s.class, s.confidence = out.ClassIndex, out.Confidence
	}
}

// traceContext is a sampled parent for the request with this key, derived
// from the key so reruns produce the same trace IDs.
func traceContext(key string) trace.SpanContext {
	sc := trace.SpanContext{Sampled: true}
	h := fnv.New128a()
	h.Write([]byte(key))
	copy(sc.TraceID[:], h.Sum(nil))
	h64 := fnv.New64a()
	h64.Write([]byte(key))
	binary.BigEndian.PutUint64(sc.SpanID[:], h64.Sum64()|1)
	return sc
}

// sleepUntil waits for t, reporting false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
