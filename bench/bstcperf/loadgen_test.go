package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bstc/internal/serve"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	draw := func(seed int64) arrivals {
		return poisson(rand.New(rand.NewSource(seed)), 200, time.Second, 7)
	}
	a, b := draw(3), draw(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, draw(4)) {
		t.Fatal("different seeds drew the same schedule")
	}
	if n := len(a.at); n < 150 || n > 250 {
		t.Errorf("%d arrivals in one second at 200/s", n)
	}
	for i, row := range a.rows {
		if row < 0 || row >= 7 || (i > 0 && a.at[i] < a.at[i-1]) {
			t.Fatalf("arrival %d: row %d at %v after %v", i, row, a.at[i], a.at[max(i-1, 0)])
		}
	}
}

// TestOpenLoopTimesStalledRequestsFromSchedule stalls a stub server once for
// 200ms. Requests due during the stall cannot finish before it ends, and
// with every slot taken the generator falls behind; their latencies must
// still run from their due times, and the cap must hold throughout.
func TestOpenLoopTimesStalledRequestsFromSchedule(t *testing.T) {
	const (
		limit   = 2
		stallAt = 5
		stall   = 200 * time.Millisecond
	)
	var (
		inflight, peak, served atomic.Int64
		mu                     sync.Mutex // one request at a time, so the stall blocks all
		stallStart, stallEnd   time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		mu.Lock()
		if served.Add(1) == stallAt {
			stallStart = time.Now()
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(serve.Response{ClassIndex: 1, Confidence: 0.5})
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, [][]byte{[]byte(`{}`)}, limit, 1)
	defer g.close()

	a := poisson(rand.New(rand.NewSource(1)), 200, time.Second, 1)
	shots := g.open(context.Background(), "test", a, false)
	if len(shots) != len(a.at) {
		t.Fatalf("%d of %d scheduled requests sent", len(shots), len(a.at))
	}
	if p := peak.Load(); p > limit {
		t.Errorf("%d requests in flight, cap is %d", p, limit)
	}
	mu.Lock()
	start, end := stallStart, stallEnd
	mu.Unlock()
	stalled, blocked := 0, 0
	for i, s := range shots {
		if s.err != "" || s.class != 1 {
			t.Fatalf("request %d: err %q class %d", i, s.err, s.class)
		}
		if s.due.Before(start) || !s.due.Before(end) {
			continue
		}
		stalled++
		if s.latency() < end.Sub(s.due) {
			t.Errorf("request due %v into the stall reports latency %v, but could not finish before the stall ended %v later",
				s.due.Sub(start), s.latency(), end.Sub(s.due))
		}
		if s.late() > stall/2 {
			blocked++
		}
	}
	if stalled <= limit || blocked == 0 {
		t.Errorf("%d requests due during the stall, %d held back by the cap; the stall did not block the generator", stalled, blocked)
	}
}
