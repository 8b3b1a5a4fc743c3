package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bstc/internal/fault"
	"bstc/internal/obs"
)

// syncBuffer lets the run log be written from batch worker goroutines and
// read by the test without a race.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runRecords extracts the run log's records for one site, in log order:
// the failures (Error set) or the rest. Healthy batch records and batch
// failures share the "serve.batch" experiment name.
func runRecords(t *testing.T, raw, site string, failed bool) []obs.RunRecord {
	t.Helper()
	var out []obs.RunRecord
	for _, line := range strings.Split(raw, "\n") {
		if line == "" {
			continue
		}
		var env struct {
			Run obs.RunRecord `json:"run"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("bad runlog line: %v\n%s", err, line)
		}
		if env.Run.Experiment == site && (env.Run.Error != "") == failed {
			out = append(out, env.Run)
		}
	}
	return out
}

// failureRecords extracts the failure records for one site.
func failureRecords(t *testing.T, raw, site string) []obs.RunRecord {
	t.Helper()
	return runRecords(t, raw, site, true)
}

// batchRecords extracts the flushed batches' serve.batch records.
func batchRecords(t *testing.T, raw string) []obs.RunRecord {
	t.Helper()
	return runRecords(t, raw, "serve.batch", false)
}

func counterValue(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// TestBatchPanicContained injects a panic into the batch worker and checks
// the blast radius: the poisoned request gets a 500 naming the panic, the
// stack lands in the run log, and the very next request classifies fine.
func TestBatchPanicContained(t *testing.T) {
	in := fault.NewInjector(10)
	in.Set("serve.batch", fault.Rule{Prob: 1, MaxFires: 1, Panic: "chaos"})
	fault.Enable(in)
	defer fault.Disable()

	reg := obs.NewRegistry()
	var logBuf syncBuffer
	art := testArtifact(t)
	s := New(art, Config{BatchSize: 1, Registry: reg, RunLog: obs.NewRunLog(&logBuf)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	status, body := postClassify(t, ts.URL, valuesBody(t, testSamples()[0]))
	if status != http.StatusInternalServerError {
		t.Fatalf("poisoned batch: status %d (%s), want 500", status, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Errorf("500 body does not name the panic: %s", body)
	}
	if got := counterValue(reg, "serve.batch_panics"); got != 1 {
		t.Errorf("serve.batch_panics = %d, want 1", got)
	}

	// The process must still serve: the rule is exhausted, so this succeeds.
	status, body = postClassify(t, ts.URL, valuesBody(t, testSamples()[0]))
	if status != http.StatusOK {
		t.Fatalf("request after contained panic: status %d (%s), want 200", status, body)
	}

	recs := failureRecords(t, logBuf.String(), "serve.batch")
	if len(recs) != 1 {
		t.Fatalf("got %d serve.batch failure records, want 1", len(recs))
	}
	if recs[0].Stack == "" || !strings.Contains(recs[0].Error, "panic") {
		t.Errorf("failure record lost the panic detail: %+v", recs[0])
	}
}

// TestHandlerPanicContained panics on the request path itself (before
// batching) and checks the Handler boundary converts it to a 500 with the
// stack logged, leaving the server alive.
func TestHandlerPanicContained(t *testing.T) {
	in := fault.NewInjector(11)
	in.Set("serve.request", fault.Rule{Prob: 1, MaxFires: 1, Panic: "chaos"})
	fault.Enable(in)
	defer fault.Disable()

	reg := obs.NewRegistry()
	var logBuf syncBuffer
	s := New(testArtifact(t), Config{BatchSize: 1, Registry: reg, RunLog: obs.NewRunLog(&logBuf)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	status, _ := postClassify(t, ts.URL, valuesBody(t, testSamples()[0]))
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", status)
	}
	if got := counterValue(reg, "serve.handler_panics"); got != 1 {
		t.Errorf("serve.handler_panics = %d, want 1", got)
	}
	if status, _ := postClassify(t, ts.URL, valuesBody(t, testSamples()[0])); status != http.StatusOK {
		t.Fatalf("request after contained handler panic: status %d, want 200", status)
	}
	recs := failureRecords(t, logBuf.String(), "serve.handler")
	if len(recs) != 1 || recs[0].Stack == "" {
		t.Fatalf("want 1 serve.handler record with a stack, got %+v", recs)
	}
}

// TestWedgedBatchAnswersAtDeadline wedges the only batch worker (injected
// latency far past the request timeout) and checks that the request
// deadline alone answers its callers: the request in the wedged batch and
// one queued behind it each get a deadline 504 well before the wedge ends,
// serve.deadline_exceeded counts both, and Close returns once the wedge
// clears, after the worker has classified both abandoned rows.
func TestWedgedBatchAnswersAtDeadline(t *testing.T) {
	const wedge = 400 * time.Millisecond
	in := fault.NewInjector(12)
	in.Set("serve.batch", fault.Rule{Prob: 1, MaxFires: 1, Latency: wedge})
	fault.Enable(in)
	defer fault.Disable()

	reg := obs.NewRegistry()
	s := New(testArtifact(t), Config{
		BatchSize:      1,
		Workers:        1,
		RequestTimeout: 50 * time.Millisecond,
		Registry:       reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The first request starts the wedge and gets its 504 at its 50ms
	// deadline; the second then queues behind the still-wedged worker.
	start := time.Now()
	for i, which := range []string{"request in the wedged batch", "request queued behind it"} {
		status, body := postClassify(t, ts.URL, valuesBody(t, testSamples()[i]))
		if status != http.StatusGatewayTimeout || !strings.Contains(string(body), "deadline exceeded") {
			t.Fatalf("%s: status %d (%s), want a deadline 504", which, status, body)
		}
	}
	if waited := time.Since(start); waited >= wedge {
		t.Errorf("both requests answered after %v, not at their 50ms deadlines inside the %v wedge", waited, wedge)
	}
	if got := counterValue(reg, "serve.deadline_exceeded"); got != 2 {
		t.Errorf("serve.deadline_exceeded = %d, want 2", got)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the wedge cleared")
	}
	if got := counterValue(reg, "serve.batches"); got != 2 {
		t.Errorf("serve.batches = %d after the wedge, want 2", got)
	}
}

// TestRetryAfterAndOverloadCounters drives the server into shedding and then
// draining, checking both rejections carry Retry-After and both counters are
// visible through /metrics.
func TestRetryAfterAndOverloadCounters(t *testing.T) {
	holdWorker(t, 300*time.Millisecond)
	reg := obs.NewRegistry()
	s := New(testArtifact(t), Config{
		MaxInFlight: 1,
		RetryAfter:  3 * time.Second,
		Registry:    reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Request A occupies the single in-flight slot while the worker holds
	// its batch.
	done := make(chan int, 1)
	go func() {
		status, _ := postClassify(t, ts.URL, valuesBody(t, testSamples()[0]))
		done <- status
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// Request B is shed.
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json",
		strings.NewReader(valuesBody(t, testSamples()[1])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("429 Retry-After = %q, want \"3\"", got)
	}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", status)
	}

	// Drain, then check the 503 path.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json",
		strings.NewReader(valuesBody(t, testSamples()[0])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("503 Retry-After = %q, want \"3\"", got)
	}

	// Both rejection modes surface in /metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.shed"] < 1 {
		t.Errorf("serve.shed = %d, want >= 1", snap.Counters["serve.shed"])
	}
	if snap.Counters["serve.rejected_draining"] < 1 {
		t.Errorf("serve.rejected_draining = %d, want >= 1", snap.Counters["serve.rejected_draining"])
	}
}
