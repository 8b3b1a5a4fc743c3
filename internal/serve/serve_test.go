package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/fault"
	"bstc/internal/obs"
)

// testArtifact trains a small deterministic artifact: one cleanly separating
// gene, one constant gene (dropped by discretization), one noisy-but-cut gene.
func testArtifact(t testing.TB) *eval.Artifact {
	t.Helper()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat", "wide"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 0, 1, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7, 0.1}, {1.2, 7, 0.2}, {1.4, 7, 0.3}, {1.6, 7, 0.35},
			{8.0, 7, 0.9}, {8.2, 7, 0.95}, {8.4, 7, 1.0}, {8.6, 7, 1.1},
		},
	}
	art, err := eval.TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// testSamples are the continuous rows the tests classify, including points
// not in the training set.
func testSamples() [][]float64 {
	return [][]float64{
		{1.0, 7, 0.1}, {1.6, 7, 0.35}, {8.0, 7, 0.9}, {8.6, 7, 1.1},
		{0.5, 3, 0.0}, {4.7, 9, 0.6}, {12.0, 7, 2.0}, {1.3, 7, 0.95},
	}
}

// expectedBody renders the exact bytes the server must produce for a sample:
// the JSON encoding of Response as written by writeJSON (trailing newline
// included), derived from the direct single-row classify path.
func expectedBody(t testing.TB, art *eval.Artifact, row []float64) []byte {
	t.Helper()
	class, conf, err := art.ClassifyRow(row)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Response{
		Class:        art.Classifier.ClassNames[class],
		ClassIndex:   class,
		Confidence:   conf,
		ModelVersion: "v1", // the default version New installs
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postClassify(t testing.TB, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func valuesBody(t testing.TB, row []float64) string {
	t.Helper()
	b, err := json.Marshal(Request{Values: row})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// holdWorker arms a latency-only serve.batch fault: the first batch a
// worker takes sleeps for d before it classifies, which holds that worker
// for d. At Workers: 1 it holds the version's only worker, so every request
// queued behind it waits too; with more, the other workers take them. The
// injector is process-wide, so tests using it must not run in parallel.
func holdWorker(t *testing.T, d time.Duration) *fault.Injector {
	t.Helper()
	in := fault.NewInjector(1)
	in.Set("serve.batch", fault.Rule{Prob: 1, MaxFires: 1, Latency: d})
	fault.Enable(in)
	t.Cleanup(fault.Disable)
	return in
}

// waitHeld blocks until a batch worker has taken a request and begun the
// hold armed by holdWorker.
func waitHeld(t *testing.T, in *fault.Injector) {
	t.Helper()
	waitFires(t, in, 1)
}

// waitFires blocks until n batches have begun an injected serve.batch hold.
func waitFires(t *testing.T, in *fault.Injector, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for in.Counts()["serve.batch"].Fires < n {
		if time.Now().After(deadline) {
			t.Fatal("no batch worker took a request")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued blocks until n requests wait in m's queue.
func waitQueued(t *testing.T, m *model, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(m.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchingDeterminism is the core serving guarantee: across batch size
// caps, under concurrency, every response body is byte-identical to what
// the direct core classify path produces for that sample.
func TestBatchingDeterminism(t *testing.T) {
	art := testArtifact(t)
	samples := testSamples()
	want := make([][]byte, len(samples))
	for i, row := range samples {
		want[i] = expectedBody(t, art, row)
	}

	configs := []Config{
		{BatchSize: 1, MaxInFlight: 64},
		{BatchSize: 3, MaxInFlight: 64},
		{BatchSize: 8, MaxInFlight: 64},
		{BatchSize: 64, MaxInFlight: 64},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("batch=%d", cfg.BatchSize), func(t *testing.T) {
			s := New(art, cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()

			const reps = 4
			var wg sync.WaitGroup
			errs := make(chan error, reps*len(samples))
			for r := 0; r < reps; r++ {
				for i := range samples {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						status, body := postClassify(t, ts.URL, valuesBody(t, samples[i]))
						if status != http.StatusOK {
							errs <- fmt.Errorf("sample %d: status %d: %s", i, status, body)
							return
						}
						if !bytes.Equal(body, want[i]) {
							errs <- fmt.Errorf("sample %d: body %q, want %q", i, body, want[i])
						}
					}(i)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestNaturalBatching pins a batch worker's policy: it takes whatever is
// queued when it is free, up to BatchSize, and never waits for a batch to
// fill. Under load the queue fills while the worker is busy and batches
// grow on their own; at low load a request waits only for compute. The
// first case runs one worker, so nothing else takes the queued rows.
func TestNaturalBatching(t *testing.T) {
	art := testArtifact(t)
	samples := testSamples()

	t.Run("queue_fills_while_busy", func(t *testing.T) {
		in := holdWorker(t, time.Second)
		reg := obs.NewRegistry()
		var logBuf syncBuffer
		s := New(art, Config{BatchSize: 4, Workers: 1, Registry: reg, RunLog: obs.NewRunLog(&logBuf)})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()

		type reply struct {
			sample, status int
			body           []byte
		}
		replies := make(chan reply, 6)
		post := func(i int) {
			status, body := postClassify(t, ts.URL, valuesBody(t, samples[i]))
			replies <- reply{i, status, body}
		}
		go post(0)
		waitHeld(t, in)
		for i := 1; i <= 5; i++ {
			go post(i)
		}
		// All five queue behind the held batch: no second batch may be
		// dispatched while the worker is busy.
		waitQueued(t, s.route.Load().stable, 5)
		if n := counterValue(reg, "serve.batches"); n != 0 {
			t.Fatalf("%d batches flushed during the hold, want 0", n)
		}

		for range 6 {
			r := <-replies
			if r.status != http.StatusOK {
				t.Fatalf("sample %d: status %d: %s", r.sample, r.status, r.body)
			}
			if want := expectedBody(t, art, samples[r.sample]); !bytes.Equal(r.body, want) {
				t.Errorf("sample %d: body %q, want %q", r.sample, r.body, want)
			}
		}
		// A batch's record follows its replies; Close waits for the worker.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var sizes []float64
		for _, r := range batchRecords(t, logBuf.String()) {
			sizes = append(sizes, r.Config["batch_size"])
		}
		if fmt.Sprint(sizes) != "[1 4 1]" {
			t.Errorf("serve.batch record sizes %v, want [1 4 1]", sizes)
		}
	})

	t.Run("low_load_waits_only_for_compute", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := New(art, Config{BatchSize: 32, Registry: reg})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()

		const n = 20
		for i := range n {
			row := samples[i%len(samples)]
			status, body := postClassify(t, ts.URL, valuesBody(t, row))
			if status != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, status, body)
			}
			if want := expectedBody(t, art, row); !bytes.Equal(body, want) {
				t.Errorf("request %d: body %q, want %q", i, body, want)
			}
		}
		wait := reg.Snapshot().Hists["serve.queue_wait_ns"]
		if wait.Count != n {
			t.Fatalf("serve.queue_wait_ns holds %d observations, want %d", wait.Count, n)
		}
		if wait.P50 >= int64(time.Millisecond) {
			t.Errorf("sequential requests: queue wait p50 %v, want under 1ms", time.Duration(wait.P50))
		}
	})
}

// TestConcurrentBatches pins Workers batch workers per version: while one
// of two workers holds the first request's batch, the other takes a second
// request off the version's queue and answers it, byte-identical to the
// direct classify path, so serve.batches reads 1 before the hold ends.
func TestConcurrentBatches(t *testing.T) {
	const hold = time.Second
	in := holdWorker(t, hold)
	art := testArtifact(t)
	samples := testSamples()
	reg := obs.NewRegistry()
	s := New(art, Config{Workers: 2, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	held := make(chan int, 1)
	go func() {
		status, _ := postClassify(t, ts.URL, valuesBody(t, samples[0]))
		held <- status
	}()
	waitHeld(t, in)
	holdEnds := time.Now().Add(hold)

	status, body := postClassify(t, ts.URL, valuesBody(t, samples[1]))
	if status != http.StatusOK {
		t.Fatalf("request during the hold: status %d: %s", status, body)
	}
	if want := expectedBody(t, art, samples[1]); !bytes.Equal(body, want) {
		t.Errorf("request during the hold: body %q, want %q", body, want)
	}
	// A worker counts its batch just after it delivers the answers.
	for counterValue(reg, "serve.batches") != 1 {
		if time.Now().After(holdEnds) {
			t.Fatalf("serve.batches = %d when the hold ended, want 1 during it", counterValue(reg, "serve.batches"))
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case status := <-held:
		t.Fatalf("held request answered (%d) before its hold ended", status)
	default:
	}
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", status)
	}
}

// sampleReply is one classify answer collected from a posting goroutine.
type sampleReply struct {
	sample, status int
	body           []byte
}

// TestCloseDrainsEveryWorker drains a version with both of its two batch
// workers held: the rows they hold and the rows queued behind them are all
// classified, and Close returns only after every worker has finished.
func TestCloseDrainsEveryWorker(t *testing.T) {
	const hold = 300 * time.Millisecond
	art := testArtifact(t)
	samples := testSamples()
	// holdBoth holds the first two batches taken, one on each worker, and
	// queues two more rows behind them.
	holdBoth := func(t *testing.T, s *Server, url string, replies chan<- sampleReply) {
		in := fault.NewInjector(1)
		in.Set("serve.batch", fault.Rule{Prob: 1, MaxFires: 2, Latency: hold})
		fault.Enable(in)
		t.Cleanup(fault.Disable)
		post := func(i int) {
			status, body := postClassify(t, url, valuesBody(t, samples[i]))
			replies <- sampleReply{i, status, body}
		}
		go post(0)
		waitFires(t, in, 1)
		go post(1)
		waitFires(t, in, 2)
		go post(2)
		go post(3)
		waitQueued(t, s.route.Load().stable, 2)
	}

	t.Run("queued_rows_answered", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := New(art, Config{Workers: 2, RequestTimeout: 30 * time.Second, Registry: reg})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		replies := make(chan sampleReply, 4)
		holdBoth(t, s, ts.URL, replies)

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for range 4 {
			r := <-replies
			if r.status != http.StatusOK {
				t.Fatalf("sample %d: status %d during drain: %s", r.sample, r.status, r.body)
			}
			if want := expectedBody(t, art, samples[r.sample]); !bytes.Equal(r.body, want) {
				t.Errorf("sample %d: body %q, want %q", r.sample, r.body, want)
			}
		}
		if got := counterValue(reg, "serve.batch_samples"); got != 4 {
			t.Errorf("serve.batch_samples = %d after Close, want 4", got)
		}
	})

	t.Run("close_waits_for_held_workers", func(t *testing.T) {
		// Every request gives up at its 50ms deadline, so nothing admitted
		// is left and only the workers can keep Close waiting.
		reg := obs.NewRegistry()
		s := New(art, Config{Workers: 2, RequestTimeout: 50 * time.Millisecond, Registry: reg})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		replies := make(chan sampleReply, 4)
		holdBoth(t, s, ts.URL, replies)
		for range 4 {
			if r := <-replies; r.status != http.StatusGatewayTimeout {
				t.Fatalf("sample %d: status %d (%s), want a deadline 504", r.sample, r.status, r.body)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Both held batches and the two rows queued behind them were
		// classified and counted before Close returned.
		if got := counterValue(reg, "serve.batch_samples"); got != 4 {
			t.Errorf("serve.batch_samples = %d when Close returned, want 4", got)
		}
	})
}

// TestItemsRequestMatchesValues checks the pre-discretized request form: the
// item names of a transformed row must classify byte-identically to sending
// the raw values.
func TestItemsRequestMatchesValues(t *testing.T) {
	art := testArtifact(t)
	s := New(art, Config{BatchSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	for i, row := range testSamples() {
		q, err := art.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		var items []string
		for _, idx := range q.Indices() {
			items = append(items, art.Disc.ItemNames[idx])
		}
		b, err := json.Marshal(Request{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		status, body := postClassify(t, ts.URL, string(b))
		if status != http.StatusOK {
			t.Fatalf("sample %d: status %d: %s", i, status, body)
		}
		if want := expectedBody(t, art, row); !bytes.Equal(body, want) {
			t.Fatalf("sample %d: items body %q, values body %q", i, body, want)
		}
	}
}

// TestDeadlineExceeded504 pins the deadline path: a request the batch
// worker cannot answer before the request deadline must get a 504, and the
// server must still shut down cleanly afterwards (the worker classifies the
// abandoned row once the hold ends).
func TestDeadlineExceeded504(t *testing.T) {
	holdWorker(t, 300*time.Millisecond)
	reg := obs.NewRegistry()
	art := testArtifact(t)
	s := New(art, Config{
		RequestTimeout: 50 * time.Millisecond,
		Registry:       reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postClassify(t, ts.URL, valuesBody(t, testSamples()[0]))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after a deadline-abandoned request")
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.deadline_exceeded"] == 0 {
		t.Error("serve.deadline_exceeded counter not incremented")
	}
}

// TestSheddingAndDrain exercises admission control end to end: with
// MaxInFlight=2 occupied by requests the one held batch worker has not
// answered, a third request is shed with 429; Shutdown then answers the two
// admitted requests with correct bodies as soon as the worker is free, and
// post-drain traffic gets 503.
func TestSheddingAndDrain(t *testing.T) {
	holdWorker(t, 500*time.Millisecond)
	reg := obs.NewRegistry()
	art := testArtifact(t)
	s := New(art, Config{
		MaxInFlight:    2,
		Workers:        1,
		RequestTimeout: 30 * time.Second,
		Registry:       reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	samples := testSamples()
	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, body := postClassify(t, ts.URL, valuesBody(t, samples[i]))
			replies <- reply{status, body}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("two requests never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	status, body := postClassify(t, ts.URL, valuesBody(t, samples[2]))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d (%s), want 429", status, body)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %s; should answer the admitted requests once the worker is free", elapsed)
	}
	wantBodies := map[string]bool{
		string(expectedBody(t, art, samples[0])): true,
		string(expectedBody(t, art, samples[1])): true,
	}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request answered %d (%s) during drain, want 200", r.status, r.body)
		}
		if !wantBodies[string(r.body)] {
			t.Fatalf("in-flight request body %q does not match any expected sample", r.body)
		}
	}

	status, body = postClassify(t, ts.URL, valuesBody(t, samples[0]))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d (%s), want 503", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.shed"] == 0 {
		t.Error("serve.shed counter not incremented")
	}
	if snap.Counters["serve.rejected_draining"] == 0 {
		t.Error("serve.rejected_draining counter not incremented")
	}
}

// TestShedBeforeDecode pins the admission order: an overloaded server sheds
// a request before it spends a decode on it, so with the only in-flight
// slot taken even a malformed body gets a 429, not a 400.
func TestShedBeforeDecode(t *testing.T) {
	in := holdWorker(t, 300*time.Millisecond)
	reg := obs.NewRegistry()
	s := New(testArtifact(t), Config{MaxInFlight: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	held := make(chan int, 1)
	go func() {
		status, _ := postClassify(t, ts.URL, valuesBody(t, testSamples()[0]))
		held <- status
	}()
	waitHeld(t, in)

	if status, body := postClassify(t, ts.URL, "{nope"); status != http.StatusTooManyRequests {
		t.Fatalf("malformed body with the only slot held: status %d (%s), want 429", status, body)
	}
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", status)
	}
	snap := reg.Snapshot()
	if shed, bad := snap.Counters["serve.shed"], snap.Counters["serve.bad_request"]; shed != 1 || bad != 0 {
		t.Errorf("serve.shed = %d, serve.bad_request = %d; want 1 and 0", shed, bad)
	}
}

// TestEndpointsAndMetrics covers the observability surface: /v1/model,
// /metrics (counters and phase histograms present), the run log (one
// serve.batch record per batch, numbered 1..n, whose sizes sum to the
// answered requests), and the retired /runlogz (404).
func TestEndpointsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf syncBuffer
	art := testArtifact(t)
	s := New(art, Config{BatchSize: 4, Registry: reg, RunLog: obs.NewRunLog(&logBuf)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	samples := testSamples()
	for _, row := range samples {
		if status, body := postClassify(t, ts.URL, valuesBody(t, row)); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var model map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&model); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := model["genes"].(float64); got != 3 {
		t.Errorf("model genes = %v, want 3", got)
	}
	classes, ok := model["classes"].([]any)
	if !ok || len(classes) != 2 {
		t.Errorf("model classes = %v, want [A B]", model["classes"])
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := snap.Counters["serve.requests"]; got != int64(len(samples)) {
		t.Errorf("serve.requests = %d, want %d", got, len(samples))
	}
	if got := snap.Counters["serve.ok"]; got != int64(len(samples)) {
		t.Errorf("serve.ok = %d, want %d", got, len(samples))
	}
	if snap.Counters["serve.batches"] == 0 {
		t.Error("serve.batches = 0")
	}
	for _, h := range []string{"serve.batch_size", "serve.latency_ns", "serve.queue_wait_ns",
		"phase.serve/discretize", "phase.serve/classify"} {
		if _, ok := snap.Hists[h]; !ok {
			t.Errorf("histogram %q missing from /metrics", h)
		}
	}
	// The layer histograms bench/bstcperf reads: one discretize per
	// request, one classify per batch.
	if got := snap.Hists["phase.serve/discretize"].Count; got != int64(len(samples)) {
		t.Errorf("phase.serve/discretize count = %d, want one per request (%d)", got, len(samples))
	}
	if got, want := snap.Hists["phase.serve/classify"].Count, snap.Counters["serve.batches"]; got != want {
		t.Errorf("phase.serve/classify count = %d, want one per batch (%d)", got, want)
	}

	recs := batchRecords(t, logBuf.String())
	if got, want := int64(len(recs)), snap.Counters["serve.batches"]; got != want {
		t.Errorf("%d serve.batch records, want one per batch (%d)", got, want)
	}
	total := 0
	for i, r := range recs {
		total += int(r.Config["batch_size"])
		if r.Test != i+1 || r.Dataset != "v1" {
			t.Errorf("record %d: seq %d version %q, want seq %d version v1", i, r.Test, r.Dataset, i+1)
		}
	}
	if total != len(samples) {
		t.Errorf("serve.batch record sizes sum to %d, want %d", total, len(samples))
	}

	resp, err = http.Get(ts.URL + "/runlogz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /runlogz: %d, want 404", resp.StatusCode)
	}
}

// TestBatchRecordsInNumberOrder has two batch workers flush batches of
// one concurrently, from eight clients posting 32 requests each, and
// requires their serve.batch records to reach the run log in number
// order: "test" reads 1..n down the file.
func TestBatchRecordsInNumberOrder(t *testing.T) {
	art := testArtifact(t)
	samples := testSamples()
	reg := obs.NewRegistry()
	var logBuf syncBuffer
	s := New(art, Config{BatchSize: 1, MaxInFlight: 64, Workers: 2, Registry: reg, RunLog: obs.NewRunLog(&logBuf)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients, perClient = 8, 32
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				row := samples[(c+i)%len(samples)]
				if status, body := postClassify(t, ts.URL, valuesBody(t, row)); status != http.StatusOK {
					t.Errorf("client %d request %d: status %d: %s", c, i, status, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs := batchRecords(t, logBuf.String())
	if len(recs) != clients*perClient {
		t.Fatalf("%d serve.batch records, want %d batches of one", len(recs), clients*perClient)
	}
	for i, r := range recs {
		if r.Test != i+1 {
			t.Fatalf("record %d in the file is number %d, want %d", i+1, r.Test, i+1)
		}
	}
}

// TestRequestClasses pins what each class of classify request gets back
// and what it counts, with a 50% canary live: the status, the exact
// response body, the X-Model-Version header, and the deltas of the global
// and per-version request counters, serve.bad_request, serve.ok and
// serve.canary_requests. The expectations were recorded with the handler
// that decoded before routing; routing ahead of decode must not move any.
func TestRequestClasses(t *testing.T) {
	art := testArtifact(t)
	reg := obs.NewRegistry()
	s := New(art, Config{BatchSize: 1, Registry: reg})
	if err := s.Apply(Update{
		Stable:        &Model{Version: "v1", Artifact: art},
		Canary:        &Model{Version: "v2", Artifact: art},
		CanaryPercent: 50,
		Seed:          7,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// counts is one reading of the pinned counters.
	type counts struct{ requests, v1, v2, bad, ok, canary int64 }
	read := func() counts {
		c := reg.Snapshot().Counters
		return counts{
			c["serve.requests"], c[`serve.requests{version="v1"}`], c[`serve.requests{version="v2"}`],
			c["serve.bad_request"], c["serve.ok"], c["serve.canary_requests"],
		}
	}
	cases := []struct {
		name    string
		body    string
		status  int
		resp    string // exact response body
		version string // X-Model-Version ("" = not set)
		delta   counts
	}{
		{name: "canonical values", body: `{"values":[1,7,0.1]}`,
			status: http.StatusOK, resp: `{"class":"A","class_index":0,"confidence":1,"model_version":"v2"}` + "\n", version: "v2", delta: counts{1, 0, 1, 0, 1, 1}},
		{name: "canonical values, stable side", body: `{"values":[12,7,2]}`,
			status: http.StatusOK, resp: `{"class":"B","class_index":1,"confidence":1,"model_version":"v1"}` + "\n", version: "v1", delta: counts{1, 1, 0, 0, 1, 0}},
		{name: "canonical values, edge numbers", body: `{"values":[-0,1E5,1e-400]}`,
			status: http.StatusOK, resp: `{"class":"A","class_index":0,"confidence":1,"model_version":"v2"}` + "\n", version: "v2", delta: counts{1, 0, 1, 0, 1, 1}},
		{name: "canonical values, near overflow", body: `{"values":[1.3,0.1e309,0.95]}`,
			status: http.StatusOK, resp: `{"class":"A","class_index":0,"confidence":0,"model_version":"v2"}` + "\n", version: "v2", delta: counts{1, 0, 1, 0, 1, 1}},
		{name: "non-canonical values", body: `{"values":[1.0, 7, 0.1]}`,
			status: http.StatusOK, resp: `{"class":"A","class_index":0,"confidence":1,"model_version":"v1"}` + "\n", version: "v1", delta: counts{1, 1, 0, 0, 1, 0}},
		{name: "non-canonical values, trailing newline", body: "{\"values\":[1,7,0.1]}\n",
			status: http.StatusOK, resp: `{"class":"A","class_index":0,"confidence":1,"model_version":"v1"}` + "\n", version: "v1", delta: counts{1, 1, 0, 0, 1, 0}},
		{name: "non-canonical values, key case", body: `{"Values":[1,7,0.1]}`,
			status: http.StatusOK, resp: `{"class":"A","class_index":0,"confidence":1,"model_version":"v2"}` + "\n", version: "v2", delta: counts{1, 0, 1, 0, 1, 1}},
		{name: "items", body: `{"items":["sep[1]","wide[0]"]}`,
			status: http.StatusOK, resp: `{"class":"A","class_index":0,"confidence":0,"model_version":"v2"}` + "\n", version: "v2", delta: counts{1, 0, 1, 0, 1, 1}},
		{name: "invalid JSON", body: "{nope",
			status: http.StatusBadRequest, resp: `{"error":"invalid JSON: invalid character 'n' looking for beginning of object key string"}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "neither field", body: "{}",
			status: http.StatusBadRequest, resp: `{"error":"request needs exactly one of \"values\" or \"items\""}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "null values", body: `{"values":null}`,
			status: http.StatusBadRequest, resp: `{"error":"request needs exactly one of \"values\" or \"items\""}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "both fields", body: `{"values":[1,2,3],"items":["sep[1]"]}`,
			status: http.StatusBadRequest, resp: `{"error":"request needs exactly one of \"values\" or \"items\""}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "one value short", body: `{"values":[1,2]}`,
			status: http.StatusBadRequest, resp: `{"error":"discretize: sample has 2 values, model fitted on 3 genes"}` + "\n", version: "v2", delta: counts{1, 0, 1, 1, 0, 1}},
		{name: "one value long", body: `{"values":[1,2,3,4]}`,
			status: http.StatusBadRequest, resp: `{"error":"discretize: sample has 4 values, model fitted on 3 genes"}` + "\n", version: "v1", delta: counts{1, 1, 0, 1, 0, 0}},
		{name: "overflow", body: `{"values":[1,1e999,2]}`,
			status: http.StatusBadRequest, resp: `{"error":"invalid JSON: json: cannot unmarshal number 1e999 into Go struct field Request.values of type float64"}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "leading zero", body: `{"values":[01,7,0.1]}`,
			status: http.StatusBadRequest, resp: `{"error":"invalid JSON: invalid character '1' after array element"}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "bare fraction", body: `{"values":[1,.5,2]}`,
			status: http.StatusBadRequest, resp: `{"error":"invalid JSON: invalid character '.' looking for beginning of value"}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "unknown item", body: `{"items":["nope[9]"]}`,
			status: http.StatusBadRequest, resp: `{"error":"unknown item \"nope[9]\""}` + "\n", version: "v2", delta: counts{1, 0, 1, 1, 0, 1}},
		{name: "empty item", body: `{"items":[""]}`,
			status: http.StatusBadRequest, resp: `{"error":"items[0] is empty"}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
		{name: "oversized body", body: `{"values":[` + strings.Repeat("1,", maxRequestBody/2) + `1]}`,
			status: http.StatusRequestEntityTooLarge, resp: `{"error":"body exceeds 4194304 bytes"}` + "\n", version: "", delta: counts{1, 0, 0, 1, 0, 0}},
	}
	for _, tc := range cases {
		before := read()
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		after := read()
		got := counts{
			after.requests - before.requests, after.v1 - before.v1, after.v2 - before.v2,
			after.bad - before.bad, after.ok - before.ok, after.canary - before.canary,
		}
		version := resp.Header.Get(ModelVersionHeader)
		if resp.StatusCode != tc.status || string(body) != tc.resp || version != tc.version || got != tc.delta {
			t.Errorf("%s: got status %d, body %q, version %q, deltas %+v\nwant status %d, body %q, version %q, deltas %+v",
				tc.name, resp.StatusCode, body, version, got, tc.status, tc.resp, tc.version, tc.delta)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/classify: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/model", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/model: %d, want 405", resp.StatusCode)
	}
}

// TestShutdownIdempotent: Close after Shutdown (and concurrent Shutdowns)
// must not panic or hang.
func TestShutdownIdempotent(t *testing.T) {
	s := New(testArtifact(t), Config{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
