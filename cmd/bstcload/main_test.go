package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/eval"
)

// loadReport runs bstcload with -report into a temp file and parses it. It
// also returns what the run wrote to stderr; stdout must stay empty.
func loadReport(t *testing.T, args ...string) (Report, string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "load.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), append(args, "-report", path), &stdout, &stderr)
	if stdout.Len() != 0 {
		t.Errorf("stdout with -report set: %s", stdout.String())
	}
	raw, readErr := os.ReadFile(path)
	if readErr != nil {
		return Report{}, stderr.String(), err
	}
	var rep Report
	if jerr := json.Unmarshal(raw, &rep); jerr != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", jerr, raw)
	}
	return rep, stderr.String(), err
}

// TestReportOnStdout pins stdout without -report to the report alone, so
// it pipes into a JSON reader; the summary line goes to stderr.
func TestReportOnStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-synth", "-requests", "16", "-concurrency", "2", "-seed", "7"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not one JSON report: %v\n%s", err, stdout.String())
	}
	if rep.Requests != 16 || rep.OK != 16 {
		t.Errorf("requests/ok = %d/%d, want 16/16", rep.Requests, rep.OK)
	}
	if !strings.Contains(stderr.String(), "bstcload: 16 requests") {
		t.Errorf("summary line missing from stderr: %s", stderr.String())
	}
}

// TestSynthSmoke is the self-contained mode CI runs: train, serve, load,
// and a sane report with ordered quantiles.
func TestSynthSmoke(t *testing.T) {
	rep, out, err := loadReport(t,
		"-synth", "-requests", "64", "-concurrency", "4", "-seed", "7", "-min-rps", "1")
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out)
	}
	if rep.Requests != 64 {
		t.Errorf("requests = %d, want 64", rep.Requests)
	}
	if rep.OK != 64 || rep.Failures != 0 {
		t.Errorf("ok/failures = %d/%d, want 64/0 (status %v)", rep.OK, rep.Failures, rep.Status)
	}
	if rep.Status["200"] != 64 {
		t.Errorf("status histogram = %v, want 64x 200", rep.Status)
	}
	// Every answer is attributed to the default version of the self-hosted
	// server.
	if rep.Versions["v1"] != 64 {
		t.Errorf("versions = %v, want v1:64", rep.Versions)
	}
	q := rep.LatencyMS
	if q.P50 <= 0 || q.P50 > q.P90 || q.P90 > q.P95 || q.P95 > q.P99 || q.P99 > q.Max {
		t.Errorf("quantiles out of order: %+v", q)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", rep.ThroughputRPS)
	}
	if rep.Seed != 7 || rep.Concurrency != 4 {
		t.Errorf("report echoes seed/concurrency %d/%d", rep.Seed, rep.Concurrency)
	}
	// The server's own documents ride along for SLO attainment checks.
	if len(rep.Model) == 0 || !bytes.Contains(rep.Model, []byte(`"genes"`)) {
		t.Errorf("model document missing: %s", rep.Model)
	}
	if len(rep.SLO) == 0 {
		t.Error("slo document missing")
	}
	if !strings.Contains(out, "bstcload: 64 requests") {
		t.Errorf("summary line missing: %s", out)
	}
}

// TestModelFileTarget serves an artifact file and synthesizes rows from the
// advertised gene count.
func TestModelFileTarget(t *testing.T) {
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7}, {1.2, 7}, {1.4, 7},
			{8.0, 7}, {8.2, 7}, {8.4, 7},
		},
	}
	art, err := eval.TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bstc")
	if err := eval.WriteArtifactFile(path, art, eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	rep, out, err := loadReport(t, "-model", path, "-requests", "32", "-concurrency", "2")
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out)
	}
	if rep.Requests != 32 || rep.OK != 32 {
		t.Errorf("requests/ok = %d/%d, want 32/32 (status %v)", rep.Requests, rep.OK, rep.Status)
	}
}

// TestGates pins the exit-code contract: a missed gate fails the run but
// still writes the report.
func TestGates(t *testing.T) {
	rep, _, err := loadReport(t,
		"-synth", "-requests", "16", "-concurrency", "2", "-min-rps", "1e12")
	if err == nil || !strings.Contains(err.Error(), "below -min-rps") {
		t.Errorf("impossible -min-rps should fail, got %v", err)
	}
	if rep.Requests != 16 {
		t.Errorf("report not written on gate failure: %+v", rep)
	}
	if _, _, err := loadReport(t,
		"-synth", "-requests", "16", "-concurrency", "2", "-max-p99", "1ns"); err == nil ||
		!strings.Contains(err.Error(), "above -max-p99") {
		t.Errorf("impossible -max-p99 should fail, got %v", err)
	}
}

// TestFleetSelfHosted drives the fleet path: replicas booted in-process
// behind the gateway, every answer 200, and the report carries the fleet
// section the chaos CI gate reads.
func TestFleetSelfHosted(t *testing.T) {
	rep, out, err := loadReport(t,
		"-synth", "-fleet-replicas", "2", "-requests", "48", "-concurrency", "4", "-max-failed", "0")
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out)
	}
	if rep.OK != 48 || rep.Failures != 0 {
		t.Errorf("ok/failures = %d/%d, want 48/0 (status %v)", rep.OK, rep.Failures, rep.Status)
	}
	if rep.Fleet == nil {
		t.Fatal("fleet section missing from report")
	}
	if rep.Fleet.Replicas != 2 {
		t.Errorf("fleet.replicas = %d, want 2", rep.Fleet.Replicas)
	}
	// A healthy loopback fleet needs no recovery machinery.
	if rep.Fleet.Ejections != 0 || rep.Fleet.FailOpen != 0 {
		t.Errorf("healthy fleet recorded ejections=%d fail_open=%d", rep.Fleet.Ejections, rep.Fleet.FailOpen)
	}
	if !strings.Contains(out, "fleet of 2 replicas") {
		t.Errorf("fleet summary line missing: %s", out)
	}
	// Non-fleet runs must not grow a fleet section.
	rep, out, err = loadReport(t, "-synth", "-requests", "8", "-concurrency", "2")
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out)
	}
	if rep.Fleet != nil {
		t.Errorf("non-fleet run has a fleet section: %+v", rep.Fleet)
	}
}

// TestMaxFailedGate: a replica that answers probes and metadata but fails
// every classify exhausts the fleet's retries; -max-failed 0 must turn the
// resulting failures into a non-zero exit while still writing the report.
func TestMaxFailedGate(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			w.WriteHeader(http.StatusOK)
		case "/v1/model":
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"genes": 3}`)) //nolint:errcheck // test fixture
		default:
			http.Error(w, "broken", http.StatusInternalServerError)
		}
	}))
	defer broken.Close()

	rep, _, err := loadReport(t,
		"-fleet", broken.URL, "-requests", "4", "-concurrency", "1", "-max-failed", "0")
	if err == nil || !strings.Contains(err.Error(), "-max-failed") {
		t.Fatalf("broken fleet with -max-failed 0 should fail the gate, got %v", err)
	}
	if rep.Failures != 4 {
		t.Errorf("failures = %d, want 4 (status %v)", rep.Failures, rep.Status)
	}
	if rep.Fleet == nil || rep.Fleet.Retries == 0 {
		t.Errorf("fleet section should show the retries spent on the broken replica: %+v", rep.Fleet)
	}
	// Negative (the default) disables the gate.
	if _, _, err := loadReport(t,
		"-fleet", broken.URL, "-requests", "4", "-concurrency", "1"); err != nil {
		t.Errorf("default -max-failed should not gate: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out, &out); err == nil {
		t.Error("no target should error")
	}
	if err := run(context.Background(), []string{"-synth", "-url", "http://x"}, &out, &out); err == nil {
		t.Error("two targets should error")
	}
	if err := run(context.Background(), []string{"-fleet", "http://x", "-fleet-replicas", "2"}, &out, &out); err == nil {
		t.Error("-fleet with -fleet-replicas should error")
	}
	if err := run(context.Background(), []string{"-url", "http://x", "-fleet-replicas", "2"}, &out, &out); err == nil {
		t.Error("-fleet-replicas without a self-hosted model should error")
	}
	if err := run(context.Background(), []string{"-url", "http://127.0.0.1:1"}, &out, &out); err == nil {
		t.Error("unreachable target should error")
	}
}
