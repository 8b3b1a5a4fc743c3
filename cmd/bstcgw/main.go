// Command bstcgw fronts a fleet of bstcd replicas with one /v1/classify
// endpoint: a reverse-proxy gateway that routes each request to a replica by
// consistent hash of its routing key, keeps one health state per replica fed
// by both request outcomes and /readyz probes (-eject-threshold failures in
// a row take a replica out of rotation; a 503 probe marks it draining; any
// success brings it back), retries idempotent classify calls with capped
// exponential backoff and full jitter under a client-wide retry budget,
// honors server Retry-After hints, and hedges tail-latency requests to the
// key's backup replica.
//
//	bstcgw -replicas http://h1:8080,http://h2:8080[,...] [-addr :8090]
//	       [-seed 1] [-max-attempts 3] [-attempt-timeout 2s]
//	       [-eject-threshold 3] [-probe-interval 1s]
//	       [-hedge-delay 30ms] [-retry-budget 10]
//	       [-trace spans.jsonl] [-trace-sample 0.1]
//
// Callers POST /v1/classify exactly as they would at one bstcd — the same
// body, the same X-Routing-Key pin, the same response shape — and get the
// fleet's fault tolerance for free. Responses additionally carry
// X-Fleet-Replica (who answered) and X-Fleet-Attempts (how many tries it
// took). The same X-Routing-Key always lands on the same healthy replica,
// in this gateway and in every other gateway configured with the same seed
// and member list.
//
// Endpoints (see internal/fleet): POST /v1/classify, GET /v1/model,
// /healthz (gateway liveness), /readyz (503 until ≥1 replica is routable),
// /fleetz (each replica's name, state and routability), and the handler
// set a bstcd replica serves: /metrics (fleet.* counters; JSON, or
// Prometheus text with the SLO gauges on ?format=prom), /slo, and /tracez
// (the sampled gateway/classify spans, -trace-sample). On SIGINT/SIGTERM
// the gateway drains in-flight proxied requests and stops probing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bstc/internal/fleet"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "bstcgw:", err)
		os.Exit(1)
	}
}

// run starts the gateway and blocks until ctx is cancelled, then drains.
// ready, when non-nil, is called with the bound listener address once the
// gateway is accepting connections (tests bind :0 and read the port here).
func run(ctx context.Context, args []string, stdout io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("bstcgw", flag.ContinueOnError)
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (required)")
	addr := fs.String("addr", ":8090", "listen address")
	seed := fs.Uint64("seed", 1, "consistent-hash seed; gateways sharing seed and replica list route identically")
	attemptTimeout := fs.Duration("attempt-timeout", 0, "deadline for one attempt or /readyz probe against one replica (default 2s)")
	maxAttempts := fs.Int("max-attempts", 0, "total tries per request including the first (default 3)")
	baseBackoff := fs.Duration("base-backoff", 0, "retry backoff base; full jitter on an exponential ceiling (default 10ms)")
	maxBackoff := fs.Duration("max-backoff", 0, "retry backoff cap, also caps server Retry-After hints (default 1s)")
	retryBudget := fs.Float64("retry-budget", 0, "client-wide retry token bucket size (default 10)")
	retryBudgetRatio := fs.Float64("retry-budget-ratio", 0, "retry tokens earned per request; sustained retries throttle to this fraction of traffic (default 0.1)")
	ejectThreshold := fs.Int("eject-threshold", 0, "failures in a row, from requests and probes alike, that take a replica out of rotation (default 3)")
	probeInterval := fs.Duration("probe-interval", 0, "/readyz probe cadence, and an ejected replica's first re-check delay, doubling per failed re-check up to 32x (default 1s)")
	hedgeDelay := fs.Duration("hedge-delay", 0, "tail-latency hedge trigger until p99 data exists; negative disables hedging (default 30ms)")
	hedgeMaxDelay := fs.Duration("hedge-max-delay", 0, "cap on the p99-derived hedge trigger (default attempt-timeout/2)")
	tracePath := fs.String("trace", "", "write sampled spans as JSONL to this file")
	traceSample := fs.Float64("trace-sample", 0, "fraction of new traces to head-sample in [0,1]")
	sloLatency := fs.Duration("slo-latency", 0, "fleet latency SLO threshold (default 100ms)")
	sloTarget := fs.Float64("slo-target", 0, "SLO good fraction for latency and availability (default 0.999)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	members := splitReplicas(*replicas)
	if len(members) == 0 {
		return fmt.Errorf("-replicas is required (comma-separated base URLs)")
	}

	reg := obs.NewRegistry()
	traceCfg := trace.Config{SampleRate: *traceSample, Recorder: trace.NewRecorder(0)}
	if *tracePath != "" {
		exp, err := trace.OpenExporter(*tracePath)
		if err != nil {
			return err
		}
		defer exp.Close()
		traceCfg.Exporter = exp
	}
	tracer := trace.New(traceCfg)

	client, err := fleet.New(fleet.Config{
		Replicas:         members,
		Seed:             *seed,
		AttemptTimeout:   *attemptTimeout,
		Retry:            fleet.RetryPolicy{MaxAttempts: *maxAttempts, BaseBackoff: *baseBackoff, MaxBackoff: *maxBackoff},
		RetryBudgetMax:   *retryBudget,
		RetryBudgetRatio: *retryBudgetRatio,
		EjectThreshold:   *ejectThreshold,
		ProbeInterval:    *probeInterval,
		HedgeDelay:       *hedgeDelay,
		HedgeMaxDelay:    *hedgeMaxDelay,
		Registry:         reg,
		Tracer:           tracer,
		SLOLatency:       *sloLatency,
		SLOTarget:        *sloTarget,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	client.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	gw := fleet.NewGateway(client, reg, tracer)
	httpSrv := &http.Server{Handler: gw.Handler()}
	fmt.Fprintf(stdout, "bstcgw: fronting %d replicas on http://%s\n", len(members), ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "bstcgw: draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return err
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	fmt.Fprintln(stdout, "bstcgw: stopped")
	return nil
}

// splitReplicas parses the -replicas flag: comma-separated base URLs,
// whitespace tolerated, empties dropped.
func splitReplicas(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
