// Package serve is the online classification layer over trained BSTC
// artifacts (internal/eval.Artifact): an HTTP/JSON service that coalesces
// concurrent single-sample requests into micro-batches, classified by a pool
// of batch workers per version, under production constraints — per-request
// deadlines, bounded in-flight concurrency with load shedding, and a
// graceful drain that completes everything already admitted.
//
// The server is multi-model: it routes over an atomically swappable
// snapshot of named versions (a stable plus an optional canary taking a
// deterministic hash-based slice of traffic), each with its own micro-batch
// pipeline, labeled serve.* metrics, and SLO trackers. Apply hot-swaps the
// routing table with drain-old/warm-new semantics — see router.go.
//
// The request path is: read body → admit (shed 429 / drain 503) → route
// (stable/canary, keyed by X-Routing-Key or the raw body) → body → query row
// by the routed version's discretizer (per request, spanned as
// serve/discretize: one fused scan of a canonical {"values":[…]} body, or
// decodeRequest then the transform for any other) → enqueue → a free one of
// the version's Config.Workers batch workers takes every queued row (up to
// BatchSize) → core.Decide row by row (per batch, spanned) → per-request
// response. Predictions are exactly what core.Classify returns for the same
// row under the same version; batching and routing change latency and
// placement, never results. A request's deadline (Config.RequestTimeout)
// is the one bound on its wait, wedged batch or not.
//
// A flushed batch is recorded by the serve.batch* metrics, by its
// serve/batch_flush span when a member was traced (the span lists every
// traced member's trace ID in trace_ids), and, with Config.RunLog, by one
// serve.batch run-log record.
//
// Endpoints:
//
//	POST /v1/classify  one sample ({"values": [...]} or {"items": [...]});
//	                   the response names the serving version
//	                   (model_version, X-Model-Version)
//	GET  /v1/model     model metadata (classes, item vocabulary sizes,
//	                   version, fingerprint, canary route)
//	GET  /healthz      200 while serving, 503 while draining; build info
//	GET  /readyz       routability: 200 only while classify requests are
//	                   admitted (503 while draining or unrouted), so fleet
//	                   probers can tell starting/stopping from dead
//	GET  /metrics      obs registry snapshot (JSON; Prometheus text with the
//	                   SLO gauges on ?format=prom or a text/plain Accept)
//	GET  /slo          latency/availability SLO windows and burn rates,
//	                   global and per live version
//	GET  /tracez       sampled span trees (HTML; ?format=json)
//
// The last three are obs.Mount, the handler set bstcgw and the
// -debug-addr servers serve too.
//
// Classify requests propagate W3C traceparent: the header is extracted on
// ingest, the sampling decision (or the caller's sampled flag) decides
// whether the request produces a span tree, and the response carries the
// resulting traceparent either way.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bstc/internal/bitset"
	"bstc/internal/eval"
	"bstc/internal/fault"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/version"
)

// Config tunes the server. The zero value of every field selects a sane
// default, so Config{} is a working development configuration.
type Config struct {
	// BatchSize caps how many queued requests a batch worker takes at
	// once (default 32). It is a cap, not a flush threshold: a worker
	// never waits for a batch to fill.
	BatchSize int
	// MaxInFlight bounds admitted-but-unanswered requests across all
	// versions; excess load is shed with 429 (default 4×BatchSize).
	MaxInFlight int
	// Workers is the number of batch workers per version, each taking and
	// classifying its own batch off the version's queue (default GOMAXPROCS).
	Workers int
	// RequestTimeout is the per-request deadline measured from admission;
	// a request that cannot be answered in time gets 504 (default 5s). It
	// is also what answers the callers of a wedged batch: nothing else
	// bounds a flush.
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint sent with 429 (shed) and 503
	// (draining) responses (default 1s). Sub-second values render rounded
	// up to whole seconds (the header speaks integer seconds; "0" would
	// invite an immediate retry storm). Negative disables the header.
	RetryAfter time.Duration
	// Registry receives the serving metrics (request/batch counters,
	// latency and batch-size histograms, discretize/classify phase
	// timings), both globally and labeled per version. nil serves
	// uninstrumented.
	Registry *obs.Registry
	// RunLog, when non-nil, receives one obs.RunRecord per flushed batch
	// and per route swap, plus one per contained failure.
	RunLog *obs.RunLog
	// Tracer records request-scoped spans: traceparent is extracted from
	// classify requests and injected into their responses, and sampled
	// requests produce a handler → batch wait → batch flush → classify
	// span tree on /tracez (and the JSONL export, when the tracer has
	// one). nil serves untraced with zero overhead.
	Tracer *trace.Tracer
	// SLOLatency is the classify latency objective's threshold: a 200
	// answered within it is a good event (default 100ms).
	SLOLatency time.Duration
	// SLOTarget is the objective's good fraction for both the latency and
	// availability SLOs (default 0.999).
	SLOTarget float64
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * c.BatchSize
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 100 * time.Millisecond
	}
	if c.SLOTarget <= 0 || c.SLOTarget >= 1 {
		c.SLOTarget = 0.999
	}
	return c
}

// result is what a batch worker delivers back to a waiting handler. err is set
// when the batch failed (a contained panic or an injected fault) instead of
// classifying.
type result struct {
	class      int
	confidence float64
	err        error
}

// pending is one admitted request waiting for its batch. done is buffered
// so a batch worker can always deliver, even when the handler has already
// given up on its deadline. wait is the request's serve/batch_wait span
// (nil when the request is untraced); the batch worker ends it at flush.
type pending struct {
	q        *bitset.Set
	enqueued time.Time
	done     chan result
	wait     *trace.Span
}

// metrics holds the server's global counter/histogram handles, resolved
// once at construction (all nil-safe when the registry is nil). Per-version
// labeled series live on each model (vmetrics).
type metrics struct {
	requests        *obs.Counter
	ok              *obs.Counter
	badRequest      *obs.Counter
	shed            *obs.Counter
	drainRejects    *obs.Counter
	deadlines       *obs.Counter
	batchPanics     *obs.Counter
	handlerPanic    *obs.Counter
	batches         *obs.Counter
	batchSamples    *obs.Counter
	swaps           *obs.Counter
	swapFails       *obs.Counter
	canaryRequests  *obs.Counter
	canaryFallbacks *obs.Counter
	inflightPeak    *obs.Gauge
	routeGen        *obs.Gauge
	canaryShare     *obs.Gauge
	batchSize       *obs.Histogram
	latency         *obs.Histogram
	queueWait       *obs.Histogram
}

// Server routes classify requests across model versions and coalesces them
// into per-version micro-batches. Create with New, swap versions with
// Apply, expose with Handler, stop with Shutdown (drains) or Close (drains
// with no deadline).
type Server struct {
	cfg Config

	// route is the live routing table; handlers Load it per request and
	// Apply Stores a fresh one, so routing reads never take a lock.
	route    atomic.Pointer[snapshot]
	applyMu  sync.Mutex     // serializes Apply and the final Shutdown teardown
	retireWG sync.WaitGroup // background retirements started by Apply

	mu       sync.Mutex
	cond     *sync.Cond
	active   int  // admitted requests not yet answered (all versions)
	draining bool // no new admissions

	met metrics
	// batchSeq numbers the serve.batch run-log records, 1-based across
	// every version the server has run; batchLog guards it and each write,
	// so the records reach the log in number order.
	batchLog sync.Mutex
	batchSeq int

	slos       *obs.SLOSet
	sloAvail   *obs.SLO // all-version availability, as before multi-model
	sloLatency *obs.SLO

	// retryAfter is cfg.RetryAfter rendered once as whole seconds for the
	// Retry-After header; "" means the header is omitted.
	retryAfter string
}

// New builds a server around one loaded artifact, installed as the stable
// version "v1". The version's batch workers start immediately; the server is
// ready to accept requests (and Apply can add versions later).
func New(art *eval.Artifact, cfg Config) *Server {
	return NewFromModel(&Model{Version: "v1", Artifact: art}, cfg)
}

// NewFromModel is New for a fully described version — callers that load
// through the model registry pass the handle's identity and Release hook,
// so the handle is released when the version eventually retires.
func NewFromModel(d *Model, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg: cfg,
		met: metrics{
			requests:        reg.Counter("serve.requests"),
			ok:              reg.Counter("serve.ok"),
			badRequest:      reg.Counter("serve.bad_request"),
			shed:            reg.Counter("serve.shed"),
			drainRejects:    reg.Counter("serve.rejected_draining"),
			deadlines:       reg.Counter("serve.deadline_exceeded"),
			batchPanics:     reg.Counter("serve.batch_panics"),
			handlerPanic:    reg.Counter("serve.handler_panics"),
			batches:         reg.Counter("serve.batches"),
			batchSamples:    reg.Counter("serve.batch_samples"),
			swaps:           reg.Counter("serve.swaps"),
			swapFails:       reg.Counter("serve.swap_failures"),
			canaryRequests:  reg.Counter("serve.canary_requests"),
			canaryFallbacks: reg.Counter("serve.canary_fallbacks"),
			inflightPeak:    reg.Gauge("serve.inflight_peak"),
			routeGen:        reg.Gauge("serve.route_generation"),
			canaryShare:     reg.Gauge("serve.canary_permille"),
			batchSize:       reg.Histogram("serve.batch_size"),
			latency:         reg.Histogram("serve.latency_ns"),
			queueWait:       reg.Histogram("serve.queue_wait_ns"),
		},
		retryAfter: renderRetryAfter(cfg.RetryAfter),
	}
	s.sloAvail = obs.NewSLO(obs.SLOConfig{Name: "classify_availability", Target: cfg.SLOTarget})
	s.sloLatency = obs.NewSLO(obs.SLOConfig{
		Name: "classify_latency", Target: cfg.SLOTarget, Threshold: cfg.SLOLatency,
	})
	s.slos = obs.NewSLOSet()
	s.slos.Add(s.sloAvail)
	s.slos.Add(s.sloLatency)
	s.cond = sync.NewCond(&s.mu)
	if d.LoadNanos > 0 {
		reg.Gauge("serve.artifact_load_ns").Set(d.LoadNanos)
	}
	s.route.Store(&snapshot{gen: 1, stable: s.newModel(d)})
	s.met.routeGen.Set(1)
	return s
}

// Artifact returns the current stable version's model. The routing table
// is read atomically, so this is safe against a concurrent Apply.
func (s *Server) Artifact() *eval.Artifact { return s.route.Load().stable.art }

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// InFlight returns the number of admitted-but-unanswered requests.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// admit reserves an in-flight slot. It returns the HTTP status to reject
// with (0 = admitted).
func (s *Server) admit() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.drainRejects.Inc()
		return http.StatusServiceUnavailable
	}
	if s.active >= s.cfg.MaxInFlight {
		s.met.shed.Inc()
		return http.StatusTooManyRequests
	}
	s.active++
	s.met.inflightPeak.SetMax(int64(s.active))
	return 0
}

// release returns an in-flight slot and wakes the drain waiter when the
// server empties.
func (s *Server) release() {
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Shutdown drains the server: new requests are rejected with 503, every
// admitted request is answered, every version retires, and its artifact
// handles are released. It returns ctx.Err if the context expires first;
// the server keeps draining in the background in that case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.active > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// applyMu orders this against an Apply that slipped past the draining
	// check: its swap finishes first, then we retire whatever routing table
	// won. retire is idempotent, so concurrent Shutdowns are safe.
	s.applyMu.Lock()
	final := s.route.Load()
	s.applyMu.Unlock()
	for _, m := range final.models() {
		m.retire()
	}
	s.retireWG.Wait()
	return nil
}

// Close is Shutdown without a deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// Handler returns the HTTP API. A panic anywhere in a handler is contained
// at this boundary: the request gets a 500, the panic and its stack go to
// the run log, and the process keeps serving. Every /v1/classify answer
// also feeds the availability and latency SLOs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/model", s.handleModel)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	obs.Mount(mux, s.cfg.Registry, s.slos, s.cfg.Tracer.Recorder().Handler())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := obs.Now()
		// Registered first so it runs after the recover below and sees the
		// 500 a contained panic writes.
		defer func() {
			if r.URL.Path != "/v1/classify" {
				return
			}
			s.sloAvail.Record(sw.status < http.StatusInternalServerError)
			if sw.status == http.StatusOK {
				s.sloLatency.RecordDuration(obs.Now().Sub(start))
			}
		}()
		defer func() {
			if rec := recover(); rec != nil {
				perr := fault.Recovered("serve.handler", rec)
				s.met.handlerPanic.Inc()
				s.emitFailure("serve.handler", perr.Error(), perr.Stack)
				writeError(sw, http.StatusInternalServerError, "internal error")
			}
		}()
		mux.ServeHTTP(sw, r)
	})
}

// statusWriter remembers the response status so the SLO middleware can
// grade the request after the handler returns.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// emitFailure records a contained failure (a panic or an injected fault)
// with its stack, when there is one, in the run log, where study failures
// land too.
func (s *Server) emitFailure(site, msg string, stack []byte) {
	s.cfg.RunLog.Emit(obs.RunRecord{
		Experiment: site,
		Error:      msg,
		Stack:      string(stack),
	})
}

// renderRetryAfter renders a Retry-After hint as the whole seconds the
// header grammar requires, rounding sub-second configs up — never down to
// "0", which clients read as "retry immediately" and which would turn a
// shedding server's hint into an amplifier. Non-positive durations disable
// the header entirely ("" = omit).
func renderRetryAfter(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return strconv.Itoa(int(math.Ceil(d.Seconds())))
}

// rejectBusy writes a shed/drain rejection with the configured Retry-After
// hint, so well-behaved clients back off instead of hammering. A disabled
// hint omits the header rather than sending "0".
func (s *Server) rejectBusy(w http.ResponseWriter, status int, format string, args ...any) {
	if s.retryAfter != "" {
		w.Header().Set("Retry-After", s.retryAfter)
	}
	writeError(w, status, format, args...)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(body) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// RoutingKeyHeader lets a client pin its canary bucket explicitly; without
// it the request body is the routing key (same sample, same side of the
// split).
const RoutingKeyHeader = "X-Routing-Key"

// ModelVersionHeader names the version that answered, on every classify
// response whose body decoded.
const ModelVersionHeader = "X-Model-Version"

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.met.requests.Inc()
	start := obs.Now()

	// Continue the caller's trace (W3C traceparent) or open a new one; the
	// sampling decision is the tracer's. The response always carries a
	// traceparent when the request did — sampled with our span ID, or the
	// caller's IDs echoed with the flag cleared when head sampling said no —
	// so clients can always correlate.
	parent, _ := trace.Extract(r)
	_, span := s.cfg.Tracer.StartRoot(r.Context(), "serve/classify_request", parent)
	defer span.End()
	if span != nil {
		trace.Inject(w.Header(), span.Context())
	} else if parent.Valid() {
		parent.Sampled = false
		trace.Inject(w.Header(), parent)
	}

	body, err := ReadBody(r, maxRequestBody)
	if err != nil {
		s.met.badRequest.Inc()
		span.SetError(err)
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxRequestBody {
		s.met.badRequest.Inc()
		span.SetError(fmt.Errorf("body exceeds %d bytes", maxRequestBody))
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxRequestBody)
		return
	}

	// Shed before decoding: a paper-scale body costs milliseconds to parse,
	// which an overloaded server should not spend on a request it rejects.
	// The body read stays outside admission, so a slow sender never holds
	// an in-flight slot.
	if status := s.admit(); status != 0 {
		span.AddEvent("rejected")
		if status == http.StatusTooManyRequests {
			s.rejectBusy(w, status, "overloaded: %d requests in flight", s.cfg.MaxInFlight)
		} else {
			s.rejectBusy(w, status, "server is draining")
		}
		return
	}
	defer s.release()

	// Route before decoding, since the routed version's discretizer reads
	// the body, and pin the version for the request's lifetime. The key
	// exists before decode: the caller's pin or the raw body. acquire fails
	// only against a version that finished retiring after we read the
	// snapshot — re-reading then observes the post-swap table, so the loop
	// terminates in two iterations in practice.
	key := []byte(r.Header.Get(RoutingKeyHeader))
	if len(key) == 0 {
		key = body
	}
	var m *model
	var isCanary bool
	for {
		sn := s.route.Load()
		m, isCanary = sn.pick(key, &s.met)
		if m.acquire() {
			break
		}
	}
	defer m.done()

	// Body → query row on the request goroutine (spanned per request), so
	// the batch workers only ever see rows in their version's item universe.
	disc := span.StartLayer(s.cfg.Registry, "serve/discretize")
	q, decoded, err := m.queryRow(body)
	disc.End()
	if !decoded {
		s.met.badRequest.Inc()
		span.SetError(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if err := fault.Hit("serve.request"); err != nil {
		span.SetError(err)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	m.met.requests.Inc()
	if isCanary {
		s.met.canaryRequests.Inc()
	}
	w.Header().Set(ModelVersionHeader, m.version)
	span.SetAttr("model_version", m.version)
	if err != nil {
		s.met.badRequest.Inc()
		span.SetError(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// The batch_wait span covers enqueue through flush; the batch worker
	// ends it, and its children (batch_flush → classify) hang off it.
	wait := span.StartChild("serve/batch_wait")
	p := &pending{q: q, enqueued: obs.Now(), done: make(chan result, 1), wait: wait}
	select {
	case m.queue <- p:
	case <-ctx.Done():
		s.met.deadlines.Inc()
		m.met.failures.Inc()
		m.sloAvail.Record(false)
		err := errors.New("deadline exceeded before batching")
		wait.SetError(err)
		wait.End()
		span.SetError(err)
		writeError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	select {
	case res := <-p.done:
		if res.err != nil {
			// A failed batch: a contained panic or an injected fault. The
			// process lives on.
			m.met.failures.Inc()
			m.sloAvail.Record(false)
			span.SetError(res.err)
			writeError(w, http.StatusInternalServerError, "%v", res.err)
			return
		}
		elapsed := obs.Now().Sub(start)
		s.met.ok.Inc()
		s.met.latency.Record(int64(elapsed))
		m.met.ok.Inc()
		m.met.latency.Record(int64(elapsed))
		m.sloAvail.Record(true)
		m.sloLatency.RecordDuration(elapsed)
		span.SetAttr("class", m.art.Classifier.ClassNames[res.class])
		writeJSON(w, http.StatusOK, Response{
			Class:        m.art.Classifier.ClassNames[res.class],
			ClassIndex:   res.class,
			Confidence:   res.confidence,
			ModelVersion: m.version,
		})
	case <-ctx.Done():
		s.met.deadlines.Inc()
		m.met.failures.Inc()
		m.sloAvail.Record(false)
		span.SetError(errors.New("deadline exceeded awaiting batch"))
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded awaiting batch")
	}
}

// handleModel reports the stable version's shape plus the routing state:
// version, fingerprint, swap generation, and the canary split when one is
// live. A hot swap is observable here (version/fingerprint/generation
// change) without sending a single classify request.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sn := s.route.Load()
	st := sn.stable
	body := map[string]any{
		"classes":        st.art.Classifier.ClassNames,
		"genes":          st.art.Disc.NumGenes(),
		"selected_genes": st.art.Disc.NumSelectedGenes(),
		"items":          st.art.Disc.NumItems(),
		"version":        st.version,
		"generation":     sn.gen,
	}
	if st.fingerprint != "" {
		body["fingerprint"] = st.fingerprint
	}
	if st.loadNanos > 0 {
		body["artifact_load_ns"] = st.loadNanos
	}
	if sn.canary != nil && sn.permille > 0 {
		canary := map[string]any{
			"version": sn.canary.version,
			"percent": float64(sn.permille) / 10,
		}
		if sn.canary.fingerprint != "" {
			canary["fingerprint"] = sn.canary.fingerprint
		}
		body["canary"] = canary
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		if s.retryAfter != "" {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "build": version.Get(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "build": version.Get()})
}

// handleReadyz is the routability signal, distinct from /healthz liveness:
// 503 while the server is draining or before a routing table exists, 200
// only while classify requests would be admitted. A fleet prober uses the
// distinction to tell "starting/stopping" (alive, will recover — keep the
// normal probe cadence) from "dead" (unreachable — back off).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if sn := s.route.Load(); sn == nil || s.Draining() {
		if s.retryAfter != "" {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		status := "draining"
		if sn == nil {
			status = "no route applied"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": status})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ready",
		"generation": s.Generation(),
	})
}
