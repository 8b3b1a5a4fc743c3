package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/fleet"
	"bstc/internal/serve"
)

// trainReplicas boots n in-process replicas serving the same artifact and
// returns their URLs with the training rows for reference answers.
func trainReplicas(t *testing.T, n int) ([]string, *eval.Artifact, [][]float64) {
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
	urls := make([]string, n)
	for i := range urls {
		srv := serve.New(art, serve.Config{BatchSize: 4})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { hs.Close(); srv.Close() })
		urls[i] = hs.URL
	}
	return urls, art, c.Values
}

func TestRunUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out, nil); err == nil {
		t.Error("run without -replicas should error")
	}
	if err := run(context.Background(), []string{"-replicas", " , "}, &out, nil); err == nil {
		t.Error("run with only empty replica entries should error")
	}
}

func TestSplitReplicas(t *testing.T) {
	got := splitReplicas(" http://a:1, http://b:2 ,,http://c:3")
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != len(want) {
		t.Fatalf("splitReplicas = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitReplicas = %v, want %v", got, want)
		}
	}
}

// TestGatewayServesFleet boots the gateway daemon over two real replicas,
// classifies through it, and verifies the answers match the artifact, the
// fleet headers name a real replica, the introspection endpoints answer,
// and the drain is clean.
func TestGatewayServesFleet(t *testing.T) {
	urls, art, rows := trainReplicas(t, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(ctx,
			[]string{"-replicas", strings.Join(urls, ","), "-addr", "127.0.0.1:0", "-probe-interval", "100ms"},
			&out, func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("gateway exited before ready: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never became ready")
	}

	for i, row := range rows {
		body, err := json.Marshal(map[string][]float64{"values": row})
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.RoutingKeyHeader, "sample-"+string(rune('a'+i)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %d: status %d: %s", i, resp.StatusCode, payload)
		}
		served := resp.Header.Get(fleet.FleetReplicaHeader)
		if served != urls[0] && served != urls[1] {
			t.Fatalf("sample %d: X-Fleet-Replica = %q, not a configured replica", i, served)
		}
		var got struct {
			ClassIndex int     `json:"class_index"`
			Confidence float64 `json:"confidence"`
		}
		if err := json.Unmarshal(payload, &got); err != nil {
			t.Fatalf("sample %d: bad body %q", i, payload)
		}
		wantClass, wantConf, err := art.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if got.ClassIndex != wantClass || got.Confidence != wantConf {
			t.Fatalf("sample %d: got (%d, %v), want (%d, %v)", i, got.ClassIndex, got.Confidence, wantClass, wantConf)
		}
	}

	for _, path := range []string{"/healthz", "/readyz", "/fleetz", "/metrics", "/slo"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v (output: %s)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not drain after cancel")
	}
	for _, want := range []string{"bstcgw: fronting 2 replicas", "bstcgw: draining", "bstcgw: stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
