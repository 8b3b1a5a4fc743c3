// Command bstcd serves trained BSTC artifacts (written by `bstc artifact`)
// over HTTP, batching concurrent classify requests through the parallel
// evaluation kernel.
//
//	bstcd -model model.bstc [-model-version v1] [-addr :8080]
//	bstcd -registry DIR [-registry-poll 5s] [-addr :8080]
//	      [-batch 32] [-max-inflight 128] [-workers N]
//	      [-timeout 5s] [-runlog batches.jsonl] [-trace spans.jsonl]
//	      [-trace-sample 0.1] [-slo-latency 100ms] [-slo-target 0.999]
//
// Every model is served through a model registry (internal/registry): a
// directory of artifact files plus a manifest naming versions and the route
// (stable version, optional canary with a deterministic traffic percentage).
// -registry DIR serves a registry directory and its manifest.json. -model
// FILE is shorthand for a one-entry manifest: the file's directory is the
// registry and the file its only version, named by -model-version. Each
// version is mapped zero-copy (eval.LoadArtifactMapped), so cold start
// parses only the metadata section and replicas on one host share a single
// page-cache copy; /v1/model reports the file digest as its fingerprint and
// the measured load time, which also lands on the serve.artifact_load_ns
// gauge.
//
// SIGHUP hot-reloads with no dropped requests through one path: the daemon
// takes the current manifest — re-read from -registry, or -model's rebuilt
// with the version bumped to v1.1, v1.2, … so the rewritten file loads
// fresh — and atomically swaps to its route. With -registry-poll the daemon
// also watches the manifest and swaps when it changes. A reload that fails
// to load leaves the current versions serving untouched. Swaps are
// observable on /v1/model (version, fingerprint, generation, canary) and
// every classify response names its version (model_version,
// X-Model-Version).
//
// Endpoints (see internal/serve): POST /v1/classify, GET /v1/model,
// /healthz (liveness, with build info), /readyz (routability: 503 while
// draining or before the first route is applied — what a fleet prober
// like cmd/bstcgw watches), /metrics (JSON, or Prometheus text with
// ?format=prom), /tracez, /slo. Classify requests carry W3C
// traceparent end to end: -trace-sample heads new traces, a propagated
// sampled flag is always honored, and sampled spans land on /tracez and
// in the -trace JSONL export. -runlog appends to its file one JSONL record
// per flushed batch, route swap and contained panic; batch numbers restart
// at 1 in each process, so a restarted daemon's records follow the last
// run's in the same file. -timeout is the one bound on a request: one its batch has not
// answered by then gets 504, wedged batch or not. On SIGINT/SIGTERM the
// daemon drains: admitted requests are answered, new ones get 503, then
// both the HTTP server and the batcher stop.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/registry"
	"bstc/internal/serve"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "bstcd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled, then drains.
// ready, when non-nil, is called with the bound listener address once the
// server is accepting connections (tests bind :0 and read the port here).
func run(ctx context.Context, args []string, stdout io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("bstcd", flag.ContinueOnError)
	model := fs.String("model", "", "artifact written by `bstc artifact` (this or -registry is required)")
	modelVersion := fs.String("model-version", "v1", "version name for the -model artifact")
	registryDir := fs.String("registry", "", "serve a model registry directory (manifest.json routing; hot-reload on SIGHUP)")
	registryPoll := fs.Duration("registry-poll", 0, "also watch the registry manifest and swap when it changes (0 disables)")
	addr := fs.String("addr", ":8080", "listen address")
	batch := fs.Int("batch", 0, "cap on the queued requests one batch takes; a batch never waits to fill (default 32)")
	maxInflight := fs.Int("max-inflight", 0, "admitted-request bound before 429 (default 4x batch)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines per batch classify")
	timeout := fs.Duration("timeout", 0, "per-request deadline (default 5s)")
	retryAfter := fs.Duration("retry-after", 0, "Retry-After hint on 429/503 responses (default 1s)")
	runlogPath := fs.String("runlog", "", "append per-batch JSONL records to this file")
	tracePath := fs.String("trace", "", "write sampled spans as JSONL to this file")
	traceSample := fs.Float64("trace-sample", 0, "fraction of new traces to head-sample in [0,1]; propagated sampled traceparents are always honored")
	sloLatency := fs.Duration("slo-latency", 0, "classify latency SLO threshold (default 100ms)")
	sloTarget := fs.Float64("slo-target", 0, "SLO good fraction for latency and availability (default 0.999)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*model == "") == (*registryDir == "") {
		return fmt.Errorf("exactly one of -model or -registry is required")
	}

	cfg := serve.Config{
		BatchSize:      *batch,
		MaxInFlight:    *maxInflight,
		Workers:        *workers,
		RequestTimeout: *timeout,
		RetryAfter:     *retryAfter,
		Registry:       obs.NewRegistry(),
		SLOLatency:     *sloLatency,
		SLOTarget:      *sloTarget,
	}
	if *runlogPath != "" {
		f, err := os.OpenFile(*runlogPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.RunLog = obs.NewRunLog(f)
	}
	// The tracer always carries a recorder so /tracez works even at sample
	// rate 0 (propagated sampled traceparents still produce spans).
	traceCfg := trace.Config{SampleRate: *traceSample, Recorder: trace.NewRecorder(0)}
	if *tracePath != "" {
		exp, err := trace.OpenExporter(*tracePath)
		if err != nil {
			return err
		}
		defer exp.Close()
		traceCfg.Exporter = exp
	}
	cfg.Tracer = trace.New(traceCfg)

	// Both modes serve through a registry. -model's manifest is implicit and
	// rebuilt per reload as a fresh version.
	dir := *registryDir
	if *model != "" {
		dir = filepath.Dir(*model)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		return err
	}
	defer reg.Close()
	reloads := 0
	manifest := func() (*registry.Manifest, error) {
		if *model == "" {
			return reg.Manifest()
		}
		version := *modelVersion
		if reloads > 0 {
			version = fmt.Sprintf("%s.%d", version, reloads)
		}
		return modelManifest(*model, version)
	}

	// Boot from the manifest a reload would read: the server starts on the
	// stable version, then applyManifest adds the canary when there is one.
	man, err := manifest()
	if err != nil {
		return err
	}
	h, err := reg.Acquire(man, man.Serve.Model, man.Serve.Stable)
	if err != nil {
		return err
	}
	s := serve.NewFromModel(handleToModel(h), cfg)
	if man.Serve.Canary != "" {
		if err := applyManifest(s, reg, man); err != nil {
			s.Close()
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	stable, canary, pct := s.Route()
	art := s.Artifact()
	fmt.Fprintf(stdout, "bstcd: serving %d-class model (%d items, %s) on http://%s\n",
		len(art.Classifier.ClassNames), art.Disc.NumItems(), routeBanner(stable, canary, pct), ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}

	// SIGHUP reloads; a failed reload logs and keeps the current versions
	// serving. In registry mode -registry-poll additionally swaps when the
	// manifest file changes.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	manifestDigest := func() string {
		if *registryDir == "" {
			return ""
		}
		b, err := os.ReadFile(filepath.Join(*registryDir, registry.ManifestName))
		if err != nil {
			return ""
		}
		return eval.FileDigest(b)
	}
	lastManifest := manifestDigest()
	reload := func() {
		reloads++
		man, err := manifest()
		if err == nil {
			err = applyManifest(s, reg, man)
		}
		if err != nil {
			fmt.Fprintf(stdout, "bstcd: reload failed (%v); keeping current route\n", err)
			return
		}
		stable, canary, pct := s.Route()
		fmt.Fprintf(stdout, "bstcd: reloaded generation %d: %s\n",
			s.Generation(), routeBanner(stable, canary, pct))
	}
	var pollC <-chan time.Time
	if *registryDir != "" && *registryPoll > 0 {
		tick := time.NewTicker(*registryPoll)
		defer tick.Stop()
		pollC = tick.C
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

loop:
	for {
		select {
		case err := <-serveErr:
			s.Close()
			return err
		case <-hup:
			reload()
			lastManifest = manifestDigest()
		case <-pollC:
			if d := manifestDigest(); d != "" && d != lastManifest {
				lastManifest = d
				reload()
			}
		case <-ctx.Done():
			break loop
		}
	}

	fmt.Fprintln(stdout, "bstcd: draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	// Drain the batching layer first: admitted requests are answered,
	// pending batches flush immediately, every version retires and releases
	// its artifact handle, so the HTTP handlers below can finish. New
	// requests arriving meanwhile get fast 503s.
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return err
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	fmt.Fprintln(stdout, "bstcd: stopped")
	return nil
}

// handleToModel adapts a registry handle into a serving model descriptor;
// the Release hook returns the handle to the registry once the version has
// fully drained, and the registry unmaps the artifact when that was its
// last reference.
func handleToModel(h *registry.Handle) *serve.Model {
	fp := h.Digest
	if len(fp) > 16 {
		fp = fp[:16]
	}
	return &serve.Model{
		Version:     h.ModelVersion,
		Artifact:    h.Artifact,
		Fingerprint: fp,
		LoadNanos:   h.LoadNanos,
		Release:     h.Release,
	}
}

// applyManifest acquires the manifest's routed versions and swaps the
// server to them. On any error the handles are returned and the server's
// current route is untouched.
func applyManifest(s *serve.Server, reg *registry.Registry, man *registry.Manifest) error {
	hs, err := reg.Acquire(man, man.Serve.Model, man.Serve.Stable)
	if err != nil {
		return err
	}
	u := serve.Update{
		Stable:        handleToModel(hs),
		CanaryPercent: man.Serve.CanaryPercent,
		Seed:          man.Serve.Seed,
	}
	if man.Serve.Canary != "" {
		hc, err := reg.Acquire(man, man.Serve.Model, man.Serve.Canary)
		if err != nil {
			hs.Release()
			return err
		}
		u.Canary = handleToModel(hc)
	}
	return s.Apply(u) // Apply releases the update's handles on error
}

// modelManifest is -model's implicit one-entry manifest: the file's base
// name inside its directory, served as the given version. It goes through
// registry.ParseManifest, so -model-version gets the same name checks as a
// registry manifest.
func modelManifest(path, version string) (*registry.Manifest, error) {
	b, err := json.Marshal(registry.Manifest{
		Version: 1,
		Models:  []registry.ModelEntry{{Name: "model", ModelVersion: version, Path: filepath.Base(path)}},
	})
	if err != nil {
		return nil, err
	}
	return registry.ParseManifest(b)
}

// routeBanner renders the live route for log lines.
func routeBanner(stable, canary string, pct float64) string {
	if canary == "" {
		return "stable=" + stable
	}
	return fmt.Sprintf("stable=%s canary=%s@%.1f%%", stable, canary, pct)
}
