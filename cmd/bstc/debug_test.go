package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/obs"
	"bstc/internal/synth"
)

// TestDebugAddrServesEvalMetrics scrapes -debug-addr's /metrics while an
// eval run is in flight and requires the run's own series on it: the BSTC
// phase timers (phase.*) and the core counters (core.*). /slo must answer
// a JSON document, not null.
func TestDebugAddrServesEvalMetrics(t *testing.T) {
	p, err := synth.ProfileByName("OC", synth.Small)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "oc.tsv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteContinuous(f, c); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-debug-addr", addr, "eval", "-in", in, "-folds", "10", "-workers", "1"})
	}()

	var sawMetrics, sawSLO bool
	for !sawMetrics || !sawSLO {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Fatalf("eval finished before a scrape saw phase.* and core.* (/metrics %v) and a /slo document (%v)", sawMetrics, sawSLO)
		default:
		}
		if body, ok := scrape(addr, "/metrics"); ok {
			var snap obs.Snapshot
			if json.Unmarshal(body, &snap) == nil && hasPrefix(snap.Hists, "phase.") && hasPrefix(snap.Counters, "core.") {
				sawMetrics = true
			}
		}
		if body, ok := scrape(addr, "/slo"); ok && json.Valid(body) && strings.TrimSpace(string(body)) != "null" {
			sawSLO = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func scrape(addr, path string) ([]byte, bool) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, false // not listening yet
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, err == nil && resp.StatusCode == http.StatusOK
}

func hasPrefix[V any](m map[string]V, prefix string) bool {
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}
