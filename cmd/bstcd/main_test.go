package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
)

// writeArtifact trains a small artifact to a temp file and returns its path
// together with the training rows for classification checks.
func writeArtifact(t *testing.T) (string, *eval.Artifact, [][]float64) {
	t.Helper()
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
	return path, art, c.Values
}

func TestRunUsageErrors(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, nil, &out, nil); err == nil {
		t.Error("run without -model should error")
	}
	if err := run(ctx, []string{"-model", "/does/not/exist"}, &out, nil); err == nil {
		t.Error("run with a missing model file should error")
	}
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-model", junk}, &out, nil); err == nil {
		t.Error("run with a corrupt model file should error")
	}
}

// TestServeAndDrain boots the daemon on a random port, classifies over HTTP,
// then cancels the run context and verifies a clean drain.
func TestServeAndDrain(t *testing.T) {
	model, art, rows := writeArtifact(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx,
			[]string{"-model", model, "-addr", "127.0.0.1:0", "-batch", "4", "-max-wait", "1ms"},
			&out, func(a net.Addr) { addrCh <- a })
	}()

	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	for i, row := range rows {
		body, err := json.Marshal(map[string][]float64{"values": row})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Class      string  `json:"class"`
			ClassIndex int     `json:"class_index"`
			Confidence float64 `json:"confidence"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %d: status %d", i, resp.StatusCode)
		}
		wantClass, wantConf, err := art.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if got.ClassIndex != wantClass || got.Confidence != wantConf {
			t.Fatalf("sample %d: got (%d, %v), want (%d, %v)",
				i, got.ClassIndex, got.Confidence, wantClass, wantConf)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v (output: %s)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
	for _, want := range []string{"bstcd: serving", "bstcd: draining", "bstcd: stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunlogFile checks the -runlog flag produces per-batch JSONL records.
func TestRunlogFile(t *testing.T) {
	model, _, rows := writeArtifact(t)
	logPath := filepath.Join(t.TempDir(), "batches.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx,
			[]string{"-model", model, "-addr", "127.0.0.1:0", "-runlog", logPath},
			&out, func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	body, _ := json.Marshal(map[string][]float64{"values": rows[0]})
	resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"serve.batch"`)) {
		t.Fatalf("run log has no serve.batch records: %s", data)
	}
}

// TestServeMmap boots the daemon on an artifact file and verifies the
// zero-copy mapped serving answers exactly like the in-memory pipeline, and
// that /v1/model reports the file's fingerprint and a measured load time.
func TestServeMmap(t *testing.T) {
	model, art, rows := writeArtifact(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx,
			[]string{"-model", model, "-addr", "127.0.0.1:0", "-batch", "4", "-max-wait", "1ms"},
			&out, func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Fingerprint    string `json:"fingerprint"`
		ArtifactLoadNs int64  `json:"artifact_load_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	data, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	if want := eval.FileDigest(data)[:16]; meta.Fingerprint != want {
		t.Errorf("fingerprint = %q, want the file digest prefix %q", meta.Fingerprint, want)
	}
	if meta.ArtifactLoadNs <= 0 {
		t.Errorf("artifact_load_ns = %d, want > 0", meta.ArtifactLoadNs)
	}

	for i, row := range rows {
		body, err := json.Marshal(map[string][]float64{"values": row})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			ClassIndex int     `json:"class_index"`
			Confidence float64 `json:"confidence"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %d: status %d", i, resp.StatusCode)
		}
		wantClass, wantConf, err := art.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if got.ClassIndex != wantClass || got.Confidence != wantConf {
			t.Fatalf("sample %d: mapped daemon got (%d, %v), want (%d, %v)",
				i, got.ClassIndex, got.Confidence, wantClass, wantConf)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeRejectsV1Artifact: a file in the retired v1 gob format must stop
// the daemon at boot (main exits 1 on a run error) with a message naming
// the format and the command that rewrites the file.
func TestServeRejectsV1Artifact(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old-v1.bstc")
	v1 := "BSTC-ARTIFACT\n=\xff\x99\x03\x01\x01\vartifactDTO\x01\xff\x9a\x00"
	if err := os.WriteFile(old, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-model", old, "-addr", "127.0.0.1:0"}, &out, nil)
	if err == nil {
		t.Fatal("a v1 gob artifact booted")
	}
	for _, want := range []string{"v1", "bstc artifact"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("boot error %q does not mention %q", err, want)
		}
	}
}
