package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"

	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/serve"
	"bstc/internal/version"
)

// Gateway wraps a Client in the replica's own HTTP API: callers POST
// /v1/classify at the gateway exactly as they would at one bstcd, and the
// fleet machinery (consistent-hash routing, one health state per replica
// fed by request outcomes and probes, retries, hedging) happens behind the
// unchanged contract.
//
// Endpoints:
//
//	POST /v1/classify  proxied to the routed replica; the response carries
//	                   the replica's body and X-Model-Version untouched,
//	                   plus X-Fleet-Replica and X-Fleet-Attempts
//	GET  /v1/model     proxied to a routable replica
//	GET  /healthz      gateway liveness (200 while the process runs)
//	GET  /readyz       gateway readiness: 200 while ≥1 replica is routable
//	GET  /fleetz       ring members, and each replica as {name, state, routable}
//	GET  /metrics      fleet.* registry (JSON; Prometheus text with the SLO
//	                   gauges on ?format=prom or a text/plain Accept)
//	GET  /slo          fleet availability/latency SLO windows
//	GET  /tracez       sampled gateway/classify span trees (the tracer's
//	                   recorder; 503 without one)
//
// The last three are obs.Mount, the handler set a replica serves too.
type Gateway struct {
	client *Client
	reg    *obs.Registry
	tracer *trace.Tracer
}

// NewGateway builds a gateway over an existing client. reg should be the
// registry the client reports into, so /metrics shows the fleet series;
// tracer (optional) continues W3C traceparent through the fleet spans.
func NewGateway(client *Client, reg *obs.Registry, tracer *trace.Tracer) *Gateway {
	return &Gateway{client: client, reg: reg, tracer: tracer}
}

// FleetReplicaHeader names the replica whose answer the gateway returned.
const FleetReplicaHeader = "X-Fleet-Replica"

// FleetAttemptsHeader reports how many wire attempts (retries and hedges
// included) the answer took.
const FleetAttemptsHeader = "X-Fleet-Attempts"

// Handler returns the gateway's HTTP API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", g.handleClassify)
	mux.HandleFunc("/v1/model", g.handleModel)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/fleetz", g.handleFleetz)
	obs.Mount(mux, g.reg, g.client.SLOs(), g.tracer.Recorder().Handler())
	return mux
}

// gatewayMaxBody mirrors the replica-side request bound; oversized bodies
// are rejected here instead of shipped across the fleet.
const gatewayMaxBody = 4 << 20

func (g *Gateway) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		gatewayError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := serve.ReadBody(r, gatewayMaxBody)
	if err != nil {
		gatewayError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > gatewayMaxBody {
		gatewayError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", gatewayMaxBody)
		return
	}

	// The routing key: the caller's pin, or the body — the same rule the
	// replica's canary split applies, so gateway routing and replica canary
	// bucketing agree on what identifies a request.
	key := []byte(r.Header.Get(serve.RoutingKeyHeader))
	if len(key) == 0 {
		key = body
	}

	ctx := r.Context()
	parent, _ := trace.Extract(r)
	gctx, span := g.tracer.StartRoot(ctx, "gateway/classify", parent)
	defer span.End()
	if span != nil {
		trace.Inject(w.Header(), span.Context())
		ctx = gctx
	}

	res, err := g.client.Classify(ctx, key, body)
	if err != nil {
		span.SetError(err)
		gatewayError(w, http.StatusBadGateway, "fleet: %v", err)
		return
	}
	copyHeader(w.Header(), res.Header, "Content-Type")
	copyHeader(w.Header(), res.Header, serve.ModelVersionHeader)
	copyHeader(w.Header(), res.Header, "Retry-After")
	w.Header().Set(FleetReplicaHeader, res.Replica)
	w.Header().Set(FleetAttemptsHeader, fmt.Sprint(res.Attempts))
	w.WriteHeader(res.Status)
	w.Write(res.Body) //nolint:errcheck // response committed
}

func (g *Gateway) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		gatewayError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	res, err := g.client.Get(r.Context(), "/v1/model", nil)
	if err != nil {
		gatewayError(w, http.StatusBadGateway, "fleet: %v", err)
		return
	}
	copyHeader(w.Header(), res.Header, "Content-Type")
	w.Header().Set(FleetReplicaHeader, res.Replica)
	w.WriteHeader(res.Status)
	w.Write(res.Body) //nolint:errcheck // response committed
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	gatewayJSON(w, http.StatusOK, map[string]any{"status": "ok", "build": version.Get()})
}

// handleReadyz is the gateway's own routability signal: ready while at
// least one replica can take traffic. A fleet prober one tier up applies
// the same starting/stopping-vs-dead distinction the gateway applies to
// its replicas.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	statuses := g.client.Statuses()
	routable := 0
	for _, s := range statuses {
		if s.Routable {
			routable++
		}
	}
	if routable == 0 {
		gatewayJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "no routable replicas", "replicas": len(statuses),
		})
		return
	}
	gatewayJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "replicas": len(statuses), "routable": routable,
	})
}

func (g *Gateway) handleFleetz(w http.ResponseWriter, r *http.Request) {
	gatewayJSON(w, http.StatusOK, map[string]any{
		"members":  g.client.Ring().Members(),
		"replicas": g.client.Statuses(),
	})
}

func copyHeader(dst, src http.Header, name string) {
	if v := src.Get(name); v != "" {
		dst.Set(name, v)
	}
}

func gatewayJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // response committed
}

func gatewayError(w http.ResponseWriter, status int, format string, args ...any) {
	gatewayJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
