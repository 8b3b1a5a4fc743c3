package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
)

// trainOpposed trains two artifacts over the same rows whose class labels
// are inverted, so every classification names which version answered it.
func trainOpposed(t *testing.T) (v1, v2 *eval.Artifact, rows [][]float64) {
	t.Helper()
	values := [][]float64{
		{1.0, 7}, {1.2, 7}, {1.4, 7},
		{8.0, 7}, {8.2, 7}, {8.4, 7},
	}
	train := func(classes []int) *eval.Artifact {
		c := &dataset.Continuous{
			GeneNames:  []string{"sep", "flat"},
			ClassNames: []string{"A", "B"},
			Classes:    classes,
			Values:     values,
		}
		art, err := eval.TrainArtifact(c, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	return train([]int{0, 0, 0, 1, 1, 1}), train([]int{1, 1, 1, 0, 0, 0}), values
}

// writeFleet lays out a registry directory holding both opposed artifacts
// routed per the given serve block.
func writeFleet(t *testing.T, serveJSON string) (dir string, v1, v2 *eval.Artifact, rows [][]float64) {
	t.Helper()
	dir = t.TempDir()
	v1, v2, rows = trainOpposed(t)
	if err := eval.WriteArtifactFile(filepath.Join(dir, "model-v1.bstc"), v1, eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	if err := eval.WriteArtifactFile(filepath.Join(dir, "model-v2.bstc"), v2, eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, serveJSON)
	return dir, v1, v2, rows
}

// writeManifest (re)writes the manifest atomically — a rename, so a polling
// daemon never reads a torn file.
func writeManifest(t *testing.T, dir, serveJSON string) {
	t.Helper()
	manifest := fmt.Sprintf(`{
	  "version": 1,
	  "models": [
	    {"name": "bstc", "model_version": "v1", "path": "model-v1.bstc"},
	    {"name": "bstc", "model_version": "v2", "path": "model-v2.bstc"}
	  ],
	  "serve": %s
	}`, serveJSON)
	tmp := filepath.Join(dir, ".manifest.tmp")
	if err := os.WriteFile(tmp, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
}

// bootDaemon starts run() in-process and returns the base URL plus the done
// channel and captured output.
func bootDaemon(t *testing.T, ctx context.Context, out *syncWriter, args ...string) (string, chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, out, func(a net.Addr) { addrCh <- a })
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), done
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	panic("unreachable")
}

// syncWriter guards the output buffer: run() writes reload lines from its
// own goroutine while the test reads.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func modelMeta(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitModelVersion polls /v1/model until the stable version matches.
func waitModelVersion(t *testing.T, base, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := modelMeta(t, base)
		if m["version"] == want {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("stable version never became %q: %v", want, m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// classifyRow posts one row and returns the class index and the version
// that the response attributes itself to.
func classifyRow(t *testing.T, base string, row []float64, key string) (int, string) {
	t.Helper()
	body, err := json.Marshal(map[string][]float64{"values": row})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-Routing-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		ClassIndex   int    `json:"class_index"`
		ModelVersion string `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d", resp.StatusCode)
	}
	if hdr := resp.Header.Get("X-Model-Version"); hdr != got.ModelVersion {
		t.Fatalf("X-Model-Version %q disagrees with body model_version %q", hdr, got.ModelVersion)
	}
	return got.ClassIndex, got.ModelVersion
}

// TestRegistryModeFlags pins flag validation: -model and -registry are
// mutually exclusive and one is required.
func TestRegistryModeFlags(t *testing.T) {
	var out syncWriter
	if err := run(context.Background(), []string{"-model", "a", "-registry", "b"}, &out, nil); err == nil {
		t.Error("-model with -registry should error")
	}
	if err := run(context.Background(), []string{"-registry", filepath.Join(t.TempDir(), "missing")}, &out, nil); err == nil {
		t.Error("-registry on a missing directory should error")
	}
}

// TestServeRegistryPollSwap boots registry mode with manifest polling and
// walks a rollout: v1 stable, a broken manifest edit that must not take, a
// swap to v2, then a 100% canary back to v1 — all observed through
// /v1/model and classification answers, no signals involved.
func TestServeRegistryPollSwap(t *testing.T) {
	dir, v1, v2, rows := writeFleet(t, `{"model": "bstc", "stable": "v1"}`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	base, done := bootDaemon(t, ctx, &out,
		"-registry", dir, "-registry-poll", "15ms", "-addr", "127.0.0.1:0",
		"-batch", "4", "-max-wait", "1ms")

	m := modelMeta(t, base)
	if m["version"] != "v1" {
		t.Fatalf("boot route = %v, want v1", m["version"])
	}
	wantV1, _, err := v1.ClassifyRow(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	wantV2, _, err := v2.ClassifyRow(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if wantV1 == wantV2 {
		t.Fatal("opposed artifacts agree on row 0; the swap would be unobservable")
	}
	if idx, ver := classifyRow(t, base, rows[0], ""); idx != wantV1 || ver != "v1" {
		t.Fatalf("v1 route answered (%d, %s), want (%d, v1)", idx, ver, wantV1)
	}

	// A manifest that fails validation must be skipped, v1 keeps serving.
	writeManifest(t, dir, `{"model": "bstc", "stable": "ghost"}`)
	waitFor(t, func() bool { return strings.Contains(out.String(), "reload failed") },
		"broken manifest was never rejected")
	if idx, ver := classifyRow(t, base, rows[0], ""); idx != wantV1 || ver != "v1" {
		t.Fatalf("after broken manifest: (%d, %s), want (%d, v1)", idx, ver, wantV1)
	}

	// Fix the manifest to stable=v2: the poller swaps without a signal.
	writeManifest(t, dir, `{"model": "bstc", "stable": "v2"}`)
	waitModelVersion(t, base, "v2")
	if idx, ver := classifyRow(t, base, rows[0], ""); idx != wantV2 || ver != "v2" {
		t.Fatalf("v2 route answered (%d, %s), want (%d, v2)", idx, ver, wantV2)
	}

	// 100% canary back to v1: every request lands on the canary while the
	// manifest still names v2 stable.
	writeManifest(t, dir, `{"model": "bstc", "stable": "v2", "canary": "v1", "canary_percent": 100, "seed": 7}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		m = modelMeta(t, base)
		if c, ok := m["canary"].(map[string]any); ok && c["version"] == "v1" && c["percent"] == 100.0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary route never appeared: %v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if idx, ver := classifyRow(t, base, rows[0], "any-key"); idx != wantV1 || ver != "v1" {
		t.Fatalf("100%% canary answered (%d, %s), want (%d, v1)", idx, ver, wantV1)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v (output: %s)", err, out.String())
	}
	for _, want := range []string{"bstcd: reloaded generation", "bstcd: stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSighupSingleModelReload covers -model mode's SIGHUP path in-process:
// the file is replaced on disk, SIGHUP loads it as a bumped version, and
// answers and the reported fingerprint flip while the endpoint stays up.
func TestSighupSingleModelReload(t *testing.T) {
	v1, v2, rows := trainOpposed(t)
	path := filepath.Join(t.TempDir(), "model.bstc")
	if err := eval.WriteArtifactFile(path, v1, eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	base, done := bootDaemon(t, ctx, &out,
		"-model", path, "-model-version", "prostate",
		"-addr", "127.0.0.1:0", "-batch", "4", "-max-wait", "1ms")

	wantV1, _, err := v1.ClassifyRow(rows[3])
	if err != nil {
		t.Fatal(err)
	}
	wantV2, _, err := v2.ClassifyRow(rows[3])
	if err != nil {
		t.Fatal(err)
	}
	if idx, ver := classifyRow(t, base, rows[3], ""); idx != wantV1 || ver != "prostate" {
		t.Fatalf("boot answered (%d, %s), want (%d, prostate)", idx, ver, wantV1)
	}
	bootFP, _ := modelMeta(t, base)["fingerprint"].(string)
	if bootFP == "" {
		t.Fatal("/v1/model reports no fingerprint at boot")
	}

	if err := eval.WriteArtifactFile(path, v2, eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	m := waitModelVersion(t, base, "prostate.1")
	if fp, _ := m["fingerprint"].(string); fp == "" || fp == bootFP {
		t.Errorf("reloaded fingerprint = %q, want a new one (boot was %q)", fp, bootFP)
	}
	if idx, ver := classifyRow(t, base, rows[3], ""); idx != wantV2 || ver != "prostate.1" {
		t.Fatalf("reload answered (%d, %s), want (%d, prostate.1)", idx, ver, wantV2)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- subprocess signal tests ---

const daemonHelperEnv = "BSTC_BSTCD_HELPER_REGISTRY"

// TestBstcdDaemonHelper is the subprocess body for TestDaemonSignals: it
// runs the daemon exactly as main() does (NotifyContext on INT/TERM), so
// the parent exercises real signal delivery. Inert unless re-exec'd.
func TestBstcdDaemonHelper(t *testing.T) {
	dir := os.Getenv(daemonHelperEnv)
	if dir == "" {
		t.Skip("helper: run only as a subprocess")
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx,
		[]string{"-registry", dir, "-addr", "127.0.0.1:0", "-batch", "4", "-max-wait", "1ms"},
		os.Stdout, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonSignals re-execs the test binary as a registry-mode daemon and
// drives it with real signals: SIGHUP swaps to the rewritten manifest
// (observed on /v1/model and in the answers), SIGTERM drains to a clean
// exit.
func TestDaemonSignals(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir, v1, v2, rows := writeFleet(t, `{"model": "bstc", "stable": "v1"}`)

	cmd := exec.Command(os.Args[0], "-test.run", "^TestBstcdDaemonHelper$", "-test.v")
	cmd.Env = append(os.Environ(), daemonHelperEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon binds :0; learn the port from its startup banner, and keep
	// draining the pipe so the child never blocks on a full buffer.
	var out syncWriter
	baseCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			out.Write([]byte(line + "\n"))
			if _, addr, ok := strings.Cut(line, "on http://"); ok {
				select {
				case baseCh <- "http://" + strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	var base string
	select {
	case base = <-baseCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never became ready:\n%s", out.String())
	}

	wantV1, _, err := v1.ClassifyRow(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	wantV2, _, err := v2.ClassifyRow(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if idx, ver := classifyRow(t, base, rows[0], ""); idx != wantV1 || ver != "v1" {
		t.Fatalf("subprocess boot answered (%d, %s), want (%d, v1)", idx, ver, wantV1)
	}

	// Roll the route to v2 and deliver a real SIGHUP.
	writeManifest(t, dir, `{"model": "bstc", "stable": "v2"}`)
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	m := waitModelVersion(t, base, "v2")
	if gen, ok := m["generation"].(float64); !ok || gen < 2 {
		t.Errorf("post-SIGHUP generation = %v, want >= 2", m["generation"])
	}
	if idx, ver := classifyRow(t, base, rows[0], ""); idx != wantV2 || ver != "v2" {
		t.Fatalf("post-SIGHUP answered (%d, %s), want (%d, v2)", idx, ver, wantV2)
	}

	// SIGTERM must drain: process exits 0 and logs the shutdown sequence.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			t.Fatalf("daemon exited dirty after SIGTERM: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM:\n%s", out.String())
	}
	for _, want := range []string{"bstcd: reloaded generation 2", "bstcd: draining", "bstcd: stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("subprocess output missing %q:\n%s", want, out.String())
		}
	}
}
