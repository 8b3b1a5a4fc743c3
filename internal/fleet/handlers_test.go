package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/serve"
)

// TestHandlerSetContract sends the same requests to the three servers that
// mount obs.Mount, each wired as its binary wires it: a bstcd replica
// (serve.Server), a bstcgw gateway in front of it, and a -debug-addr server
// over a registry, an SLO set and a span recorder (bstcbench's). All three
// answer /metrics as an obs.Snapshot by default and as Prometheus text with
// the SLO block on request, /slo as SLO reports, and /tracez as JSON.
func TestHandlerSetContract(t *testing.T) {
	_, art, _ := chaosArtifact(t)
	srv := serve.New(art, serve.Config{
		BatchSize: 4,
		Registry:  obs.NewRegistry(),
		Tracer:    trace.New(trace.Config{Recorder: trace.NewRecorder(0)}),
	})
	t.Cleanup(func() { srv.Close() })
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)

	reg := obs.NewRegistry()
	c, err := New(Config{Replicas: []string{replica.URL}, Seed: 1, Registry: reg, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	gwTracer := trace.New(trace.Config{Recorder: trace.NewRecorder(0)})
	gw := httptest.NewServer(NewGateway(c, reg, gwTracer).Handler())
	t.Cleanup(gw.Close)

	slos := obs.NewSLOSet()
	slos.Add(obs.NewSLO(obs.SLOConfig{Name: "cv_tests", Target: 0.999}))
	dbg, err := obs.ServeDebug("127.0.0.1:0", obs.NewRegistry(), slos, trace.NewRecorder(0).Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dbg.Close() })

	get := func(t *testing.T, url, accept string) (int, string, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}
	strict := func(body []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}

	for _, tc := range []struct{ name, url string }{
		{"bstcd", replica.URL},
		{"bstcgw", gw.URL},
		{"debug-addr", "http://" + dbg.Addr()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, ct, body := get(t, tc.url+"/metrics", "")
			var snap obs.Snapshot
			if err := strict(body, &snap); status != http.StatusOK || ct != "application/json" || err != nil {
				t.Errorf("/metrics = %d %q, decoding as obs.Snapshot: %v\n%s", status, ct, err, body)
			}
			for _, accept := range []string{"", "text/plain;version=0.0.4"} {
				url := tc.url + "/metrics?format=prom"
				if accept != "" {
					url = tc.url + "/metrics"
				}
				status, ct, body := get(t, url, accept)
				if status != http.StatusOK || ct != obs.PromContentType {
					t.Errorf("prom /metrics (Accept %q) = %d %q", accept, status, ct)
				}
				for _, want := range []string{"bstc_build_info", "bstc_slo_target"} {
					if !strings.Contains(string(body), want) {
						t.Errorf("prom /metrics (Accept %q) lacks %s", accept, want)
					}
				}
			}
			status, _, body = get(t, tc.url+"/slo", "")
			var reports []obs.SLOReport
			if err := strict(body, &reports); status != http.StatusOK || err != nil || len(reports) == 0 {
				t.Errorf("/slo = %d, %d reports, decoding as []obs.SLOReport: %v\n%s", status, len(reports), err, body)
			}
			status, ct, body = get(t, tc.url+"/tracez?format=json", "")
			if status != http.StatusOK || ct != "application/json" || !json.Valid(body) {
				t.Errorf("/tracez?format=json = %d %q\n%s", status, ct, body)
			}
		})
	}
}
