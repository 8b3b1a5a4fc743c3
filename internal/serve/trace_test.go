package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"bstc/internal/obs"
	"bstc/internal/obs/trace"
)

// TestClassifyTracePropagation drives a sampled classify request end to end
// and checks the W3C contract plus the recorded span chain
// handler → batch wait → batch flush → classify.
func TestClassifyTracePropagation(t *testing.T) {
	art := testArtifact(t)
	rec := trace.NewRecorder(0)
	var exported bytes.Buffer
	var logged bytes.Buffer
	rl := obs.NewRunLog(&logged)
	s := New(art, Config{
		BatchSize:   1,
		MaxInFlight: 16,
		Tracer:      trace.New(trace.Config{SampleRate: 1, Recorder: rec, Exporter: trace.NewExporter(&exported)}),
		RunLog:      rl,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	const parentHeader = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/classify", strings.NewReader(valuesBody(t, testSamples()[0])))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, parentHeader)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}

	// The response must continue our trace, sampled, under a server span ID.
	back, ok := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if !ok || !back.Sampled {
		t.Fatalf("response traceparent = %q", resp.Header.Get(trace.TraceparentHeader))
	}
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := resp.Header.Get(trace.TraceparentHeader); !strings.Contains(got, wantTrace) {
		t.Errorf("response trace ID not continued from request: %q", got)
	}
	if strings.Contains(resp.Header.Get(trace.TraceparentHeader), "00f067aa0ba902b7") {
		t.Error("response span ID should be the server's span, not the client's")
	}

	// The recorded trace holds the full span chain with correct parentage.
	tc, ok := rec.TraceByID(wantTrace)
	if !ok {
		t.Fatal("trace not found in recorder")
	}
	byName := map[string]trace.SpanData{}
	for _, d := range tc.Spans {
		byName[d.Name] = d
	}
	root, ok := byName["serve/classify_request"]
	if !ok {
		t.Fatalf("no request span; spans = %v", names(tc.Spans))
	}
	if root.ParentID != "00f067aa0ba902b7" {
		t.Errorf("request span parent = %q, want the client span", root.ParentID)
	}
	if root.Attrs["class"] == nil {
		t.Errorf("request span lacks class attr: %v", root.Attrs)
	}
	wait, ok := byName["serve/batch_wait"]
	if !ok || wait.ParentID != root.SpanID {
		t.Errorf("batch_wait span = %+v, want child of request span", wait)
	}
	flush, ok := byName["serve/batch_flush"]
	if !ok || flush.ParentID != wait.SpanID {
		t.Errorf("batch_flush span = %+v, want child of batch_wait", flush)
	}
	classify, ok := byName["serve/classify"]
	if !ok || classify.ParentID != flush.SpanID {
		t.Errorf("classify span = %+v, want child of batch_flush", classify)
	}
	// The flush span lists the batch's traced members.
	if ids, _ := flush.Attrs["trace_ids"].([]string); len(ids) != 1 || ids[0] != wantTrace {
		t.Errorf("batch_flush trace_ids = %v, want [%s]", flush.Attrs["trace_ids"], wantTrace)
	}

	// Drain the batcher before inspecting the export and runlog buffers:
	// the batch record is emitted asynchronously after the response.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every finished span was exported as a JSONL line.
	if n := bytes.Count(exported.Bytes(), []byte("\n")); n < 5 {
		t.Errorf("exporter wrote %d lines, want >= 5 (request, wait, flush, classify, discretize)", n)
	}

	// The batch's run-log record carries the flush span's trace.
	if !bytes.Contains(logged.Bytes(), []byte(`"trace_id":"`+wantTrace+`"`)) {
		t.Errorf("runlog record lacks trace_id: %s", logged.String())
	}

	// /tracez serves the same trace.
	tz, err := http.Get(ts.URL + "/tracez?trace=" + wantTrace)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tz.Body)
	tz.Body.Close()
	if tz.StatusCode != http.StatusOK {
		t.Errorf("/tracez trace lookup status %d", tz.StatusCode)
	}
}

// TestCoalescedBatchRecords pins how flushed batches are recorded: two
// traced requests coalesced into one batch (queued behind the one held
// worker) both appear in that batch's serve/batch_flush trace_ids, and with
// a canary live, every batch of either version gets one serve.batch run-log
// record, all numbered in one 1-based sequence.
func TestCoalescedBatchRecords(t *testing.T) {
	in := holdWorker(t, 300*time.Millisecond)
	art := testArtifact(t)
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(0)
	var logBuf syncBuffer
	s := New(art, Config{
		BatchSize: 4,
		Workers:   1,
		Registry:  reg,
		Tracer:    trace.New(trace.Config{Recorder: rec}),
		RunLog:    obs.NewRunLog(&logBuf),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Each request carries a sampled traceparent naming its trace.
	traceIDs := []string{
		"11111111111111111111111111111111",
		"22222222222222222222222222222222",
		"33333333333333333333333333333333",
	}
	statuses := make(chan int, len(traceIDs))
	post := func(i int) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", strings.NewReader(valuesBody(t, testSamples()[i])))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		req.Header.Set(trace.TraceparentHeader, "00-"+traceIDs[i]+"-00f067aa0ba902b7-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	// The first request holds the worker; the other two queue behind it
	// and flush together.
	go post(0)
	waitHeld(t, in)
	go post(1)
	go post(2)
	waitQueued(t, s.route.Load().stable, 2)
	for range traceIDs {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("traced request: status %d, want 200", status)
		}
	}

	if err := s.Apply(Update{
		Stable:        &Model{Version: "v1", Artifact: art},
		Canary:        &Model{Version: "v2", Artifact: art},
		CanaryPercent: 50,
		Seed:          7,
	}); err != nil {
		t.Fatal(err)
	}
	body := valuesBody(t, testSamples()[0])
	for i := range 8 {
		if status, got, _ := postClassifyKey(t, ts.URL, body, fmt.Sprintf("key-%d", i)); status != http.StatusOK {
			t.Fatalf("canary-split request %d: status %d: %s", i, status, got)
		}
	}
	// Close waits for the workers, so every span and record is written.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var coalesced []string
	for _, d := range rec.Spans() {
		if d.Name == "serve/batch_flush" && d.Attrs["batch_size"] == 2 {
			coalesced, _ = d.Attrs["trace_ids"].([]string)
		}
	}
	slices.Sort(coalesced)
	if !slices.Equal(coalesced, traceIDs[1:]) {
		t.Errorf("coalesced batch's trace_ids = %v, want both members %v", coalesced, traceIDs[1:])
	}

	recs := batchRecords(t, logBuf.String())
	if got, want := int64(len(recs)), counterValue(reg, "serve.batches"); got != want {
		t.Fatalf("%d serve.batch records, want one per batch (%d)", got, want)
	}
	var seqs []int
	versions := map[string]int{}
	for _, r := range recs {
		seqs = append(seqs, r.Test)
		versions[r.Dataset]++
	}
	slices.Sort(seqs)
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("serve.batch sequence %v, want 1..%d", seqs, len(seqs))
		}
	}
	if versions["v1"] == 0 || versions["v2"] == 0 {
		t.Errorf("serve.batch records per version %v, want both v1 and v2", versions)
	}
}

func names(spans []trace.SpanData) []string {
	out := make([]string, len(spans))
	for i, d := range spans {
		out[i] = d.Name
	}
	return out
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestClassifyUnsampledEchoesParent: at sample rate 0 an unsampled inbound
// traceparent is echoed back with the sampled flag cleared and no spans
// are recorded.
func TestClassifyUnsampledEchoesParent(t *testing.T) {
	art := testArtifact(t)
	rec := trace.NewRecorder(0)
	s := New(art, Config{
		BatchSize:   1,
		MaxInFlight: 16,
		Tracer:      trace.New(trace.Config{SampleRate: 0, Recorder: rec}),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/classify", strings.NewReader(valuesBody(t, testSamples()[0])))
	req.Header.Set(trace.TraceparentHeader, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}
	back, ok := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if !ok || back.Sampled {
		t.Errorf("unsampled echo = %q", resp.Header.Get(trace.TraceparentHeader))
	}
	if got := len(rec.Spans()); got != 0 {
		t.Errorf("unsampled request recorded %d spans", got)
	}

	// Without any inbound traceparent, no response header either.
	status, _ := postClassify(t, ts.URL, valuesBody(t, testSamples()[1]))
	if status != http.StatusOK {
		t.Fatalf("plain classify status %d", status)
	}
}

// TestSLOEndpointAndPromExposition: graded requests show up on /slo, and
// /metrics?format=prom serves the text exposition including the SLO block
// and build info.
func TestSLOEndpointAndPromExposition(t *testing.T) {
	art := testArtifact(t)
	s := New(art, Config{
		BatchSize:   1,
		MaxInFlight: 16,
		Registry:    obs.NewRegistry(),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// One good request, one client error (4xx does not burn availability),
	// and confirm both SLOs exist.
	if status, _ := postClassify(t, ts.URL, valuesBody(t, testSamples()[0])); status != http.StatusOK {
		t.Fatalf("classify status %d", status)
	}
	if status, _ := postClassify(t, ts.URL, "{"); status != http.StatusBadRequest {
		t.Fatalf("bad request status %d", status)
	}

	var reports []obs.SLOReport
	getJSON(t, ts.URL+"/slo", &reports)
	byName := map[string]obs.SLOReport{}
	for _, r := range reports {
		byName[r.Name] = r
	}
	avail, ok := byName["classify_availability"]
	if !ok {
		t.Fatalf("no availability SLO in %+v", reports)
	}
	// Both requests graded; the 400 is not an availability failure.
	if avail.Lifetime.Total != 2 || avail.Lifetime.Good != 2 {
		t.Errorf("availability lifetime = %+v", avail.Lifetime)
	}
	lat, ok := byName["classify_latency"]
	if !ok || lat.ThresholdMS != 100 {
		t.Errorf("latency SLO = %+v", lat)
	}
	if lat.Lifetime.Total != 1 {
		t.Errorf("latency graded %d events, want 1 (only 2xx)", lat.Lifetime.Total)
	}

	// Prometheus exposition via ?format=prom and via Accept negotiation.
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("prom content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		"bstc_build_info",
		`bstc_slo_target{slo="classify_availability"}`,
		`bstc_slo_ratio{slo="classify_latency",window="lifetime"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "bstc_build_info") {
		t.Error("Accept-negotiated /metrics is not the prom exposition")
	}

	// Default /metrics stays JSON for existing dashboards.
	var snap map[string]any
	getJSON(t, ts.URL+"/metrics", &snap)

	// /healthz carries build identity.
	var hz struct {
		Build struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Build.GoVersion == "" {
		t.Error("/healthz build info missing go_version")
	}
}
