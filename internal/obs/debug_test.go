package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeDebugLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug.hits").Add(3)
	tracez := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "tracez-ok")
	})
	srv, err := ServeDebug("127.0.0.1:0", reg, nil, tracez)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no resolved address")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/tracez"); code != http.StatusOK || body != "tracez-ok" {
		t.Errorf("/tracez = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, `"debug.hits":3`) {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404 (the registry is on /metrics)", code)
	}

	// Close is effective (the port stops accepting) and idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown after Close: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after Close")
	}
	var nilSrv *DebugServer
	if nilSrv.Close() != nil || nilSrv.Shutdown(context.Background()) != nil || nilSrv.Addr() != "" {
		t.Error("nil DebugServer methods must be no-ops")
	}
}

func TestServeDebugGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	srv, err := ServeDebug("127.0.0.1:0", nil, nil, slow)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/tracez")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- result{body: string(body)}
	}()
	<-entered
	// Shutdown must wait for the in-flight request once it is released.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "done" {
		t.Errorf("in-flight request = %q, %v; want completed response", r.body, r.err)
	}
}
