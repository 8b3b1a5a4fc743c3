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
	// The request deadline is the one bound on a batch; there is no
	// watchdog to tune.
	err := run(ctx, []string{"-watchdog-factor", "4"}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -watchdog-factor") {
		t.Errorf("-watchdog-factor: err = %v, want an unknown-flag error", err)
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
			[]string{"-model", model, "-addr", "127.0.0.1:0", "-batch", "4"},
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

// TestRunlogFile runs the daemon twice on one -runlog file, one request per
// run, and finds both runs' serve.batch records: the file is appended to,
// not truncated, and each process numbers its batches from 1.
func TestRunlogFile(t *testing.T) {
	model, _, rows := writeArtifact(t)
	logPath := filepath.Join(t.TempDir(), "batches.jsonl")
	body, _ := json.Marshal(map[string][]float64{"values": rows[0]})
	for range 2 {
		ctx, cancel := context.WithCancel(context.Background())
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
			cancel()
			t.Fatal("daemon never became ready")
		}
		resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		resp.Body.Close()
		cancel()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify: %d", resp.StatusCode)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var batches []int
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			Run struct {
				Experiment string `json:"experiment"`
				Test       int    `json:"test"`
			} `json:"run"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("run log line %q: %v", line, err)
		}
		if rec.Run.Experiment == "serve.batch" {
			batches = append(batches, rec.Run.Test)
		}
	}
	if len(batches) != 2 || batches[0] != 1 || batches[1] != 1 {
		t.Fatalf("serve.batch records numbered %v, want [1 1] (one per run): %s", batches, data)
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
			[]string{"-model", model, "-addr", "127.0.0.1:0", "-batch", "4"},
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

// TestServeRejectsV1Artifact: a file in a retired format — v1 gob, version
// 2 of the mapped layout, which also stored every exclusion list, or
// version 3, which stored each table's copy of the training rows — must
// stop the daemon at boot (main exits 1 on a run error) with a message
// naming the format and the command that rewrites the file.
func TestServeRejectsV1Artifact(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old-v1.bstc")
	v1 := "BSTC-ARTIFACT\n=\xff\x99\x03\x01\x01\vartifactDTO\x01\xff\x9a\x00"
	if err := os.WriteFile(old, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, retired string }{
		{old, "v1"},
		{filepath.Join("..", "..", "internal", "eval", "testdata", "artifact_v2.golden"), "version 2"},
		{filepath.Join("..", "..", "internal", "eval", "testdata", "artifact_v3.golden"), "version 3"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-model", tc.path, "-addr", "127.0.0.1:0"}, &out, nil)
		if err == nil {
			t.Fatalf("a %s artifact booted", tc.retired)
		}
		for _, want := range []string{tc.retired, "bstc artifact"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("boot error %q does not mention %q", err, want)
			}
		}
	}
}
