package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bstc/internal/obs"
	"bstc/internal/serve"
)

// newTestGateway builds a gateway over echo replicas and returns it with
// its client and the replica URLs.
func newTestGateway(t *testing.T, n int) (*httptest.Server, *Client, []string) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%d", i)
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(serve.ModelVersionHeader, "v1")
			fmt.Fprintf(w, `{"replica":%q,"path":%q}`, id, r.URL.Path)
		}))
		t.Cleanup(s.Close)
		urls = append(urls, s.URL)
	}
	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: urls, Seed: 4, Registry: reg, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	gw := httptest.NewServer(NewGateway(c, reg, nil).Handler())
	t.Cleanup(gw.Close)
	return gw, c, urls
}

// TestGatewayClassifyProxies: POST /v1/classify at the gateway reaches the
// ring-owned replica, and the response carries the replica's body and
// version header untouched plus the fleet attribution headers.
func TestGatewayClassifyProxies(t *testing.T) {
	gw, c, _ := newTestGateway(t, 3)

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("case-%d", i)
		want := c.Ring().Lookup([]byte(key))
		req, _ := http.NewRequest(http.MethodPost, gw.URL+"/v1/classify", strings.NewReader(`{"values":[1]}`))
		req.Header.Set(serve.RoutingKeyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %s: status %d: %s", key, resp.StatusCode, body)
		}
		if got := resp.Header.Get(FleetReplicaHeader); got != want {
			t.Fatalf("key %s: X-Fleet-Replica = %s, want ring owner %s", key, got, want)
		}
		if got := resp.Header.Get(FleetAttemptsHeader); got != "1" {
			t.Fatalf("key %s: X-Fleet-Attempts = %s, want 1", key, got)
		}
		if got := resp.Header.Get(serve.ModelVersionHeader); got != "v1" {
			t.Fatalf("key %s: version header %q not forwarded", key, got)
		}
		if !strings.Contains(body, `"path":"/v1/classify"`) {
			t.Fatalf("key %s: replica saw the wrong path: %s", key, body)
		}
	}
}

// TestGatewayRoutesByBody: without an explicit routing key the body is the
// key — the same row pins the same replica, so gateway routing agrees with
// the replica-side canary bucketing rule.
func TestGatewayRoutesByBody(t *testing.T) {
	gw, _, _ := newTestGateway(t, 3)
	post := func(body string) string {
		resp, err := http.Post(gw.URL+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		return resp.Header.Get(FleetReplicaHeader)
	}
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"values":[%d]}`, i)
		first := post(body)
		if again := post(body); again != first {
			t.Fatalf("body %s moved %s→%s between calls", body, first, again)
		}
	}
}

// TestGatewayReadyzTracksFleet: the gateway is ready iff at least one
// replica is routable, so an upstream prober sees the whole fleet's state
// through it.
func TestGatewayReadyzTracksFleet(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: []string{deadURL}, Registry: reg, EjectThreshold: 1, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	gw := httptest.NewServer(NewGateway(c, reg, nil).Handler())
	t.Cleanup(gw.Close)

	get := func(path string) int {
		resp, err := http.Get(gw.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before any probe = %d, want 200 (unprobed replicas presumed ready)", got)
	}
	c.ProbeOnce(context.Background())
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with every replica dead = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d; liveness must not track replica health", got)
	}

	live := httptest.NewServer(echoReplica("live"))
	t.Cleanup(live.Close)
	c.SetReplicas([]string{deadURL, live.URL})
	c.ProbeOnce(context.Background())
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz with one live replica = %d, want 200", got)
	}
}

// TestGatewayEndpoints: the introspection surface answers, and classify
// input is validated at the gateway edge.
func TestGatewayEndpoints(t *testing.T) {
	gw, _, urls := newTestGateway(t, 2)

	for _, path := range []string{"/fleetz", "/slo", "/metrics", "/healthz"} {
		resp, err := http.Get(gw.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content-type %s", path, ct)
		}
		if path == "/fleetz" && !strings.Contains(body, `{"name":"`+urls[0]+`","state":"up","routable":true}`) {
			t.Fatalf("/fleetz does not list members as {name, state, routable}: %s", body)
		}
	}

	// /v1/model proxies to a replica.
	resp, err := http.Get(gw.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"path":"/v1/model"`) {
		t.Fatalf("/v1/model: status %d body %s", resp.StatusCode, body)
	}

	// Method and size validation happen before anything goes on the wire.
	resp, err = http.Get(gw.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/classify = %d, want 405", resp.StatusCode)
	}
	huge := bytes.Repeat([]byte("x"), gatewayMaxBody+1)
	resp, err = http.Post(gw.URL+"/v1/classify", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized classify = %d, want 413", resp.StatusCode)
	}
}

// TestGatewayMetricsJSON: the fleet counters flow through the gateway's
// /metrics, so one scrape shows routing health.
func TestGatewayMetricsJSON(t *testing.T) {
	gw, _, _ := newTestGateway(t, 2)
	resp, err := http.Post(gw.URL+"/v1/classify", "application/json", strings.NewReader(`{"values":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)

	mresp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Counters["fleet.requests"] < 1 || snap.Counters["fleet.ok"] < 1 {
		t.Fatalf("fleet counters missing from /metrics: %+v", snap.Counters)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
