package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/fleet"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/serve"
)

// lateThreshold is how far behind schedule a request must leave to count
// as late.
const lateThreshold = time.Millisecond

// hopRequests is how many sequential requests each side of the gateway-hop
// measurement sends.
const hopRequests = 100

// stack is one serving tier set up for a run: the model file, its mapped
// replicas on loopback and, for a fleet, the gateway in front of them.
type stack struct {
	art      *eval.Artifact // replica 0's mapped artifact
	url      string         // where load goes: the gateway, or the only replica
	replicas []string
	pool     [][]float64 // the held-out rows requests carry
	closers  []func()
}

// Close tears the tier down in reverse order of construction: gateway,
// replicas (each drained), mappings, model file.
func (s *stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// buildStack generates the profile, trains on a seeded 80% split, writes
// the v2 artifact, maps it once per replica, serves each mapping on
// loopback, fronts a fleet with a gateway, and waits until every server is
// ready. Each of those steps is timed.
func buildStack(ctx context.Context, e *env, name string, sv serveSpec, rep int) (st *stack, steps []setupStep, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	t := time.Now()
	step := func(name string) {
		steps = append(steps, setupStep{name, time.Since(t)})
		t = time.Now()
	}

	d, err := generate(sv.Profile, e.seed)
	if err != nil {
		return nil, nil, err
	}
	step("synth.generate")
	sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(serveSplitSeed)), d.NumSamples(), serveTrainFrac)
	if err != nil {
		return nil, nil, err
	}
	art, err := eval.TrainArtifact(d.Subset(sp.Train), nil, e.workers)
	if err != nil {
		return nil, nil, err
	}
	step("eval.train")
	path := filepath.Join(e.workdir, fmt.Sprintf("%s-%d.bstc", name, rep))
	if err := eval.WriteArtifactFile(path, art, eval.FormatV2); err != nil {
		return nil, nil, err
	}
	st.closers = append(st.closers, func() { os.Remove(path) })
	step("eval.write")
	arts := make([]*eval.Artifact, max(1, sv.Replicas))
	for i := range arts {
		m, err := eval.LoadArtifactMapped(path)
		if err != nil {
			return nil, nil, err
		}
		st.closers = append(st.closers, func() { m.Close() })
		arts[i] = m.Artifact
	}
	st.art = arts[0]
	step("eval.load")
	for _, a := range arts {
		srv := serve.New(a, serve.Config{Workers: e.workers, Registry: e.reg, Tracer: e.serverTracer})
		st.closers = append(st.closers, func() { srv.Close() })
		url, stop, err := listen(srv.Handler())
		if err != nil {
			return nil, nil, err
		}
		st.closers = append(st.closers, stop)
		st.replicas = append(st.replicas, url)
	}
	st.url = st.replicas[0]
	if sv.Replicas > 0 {
		fc, err := fleet.New(fleet.Config{
			Replicas:   st.replicas,
			Seed:       uint64(e.seed),
			HedgeDelay: hedgeFloor,
			Registry:   e.reg,
			Tracer:     e.serverTracer,
		})
		if err != nil {
			return nil, nil, err
		}
		fc.Start(ctx)
		st.closers = append(st.closers, fc.Close)
		url, stop, err := listen(fleet.NewGateway(fc, e.reg, e.serverTracer).Handler())
		if err != nil {
			return nil, nil, err
		}
		st.closers = append(st.closers, stop)
		st.url = url
	}
	if err := waitReady(ctx, append([]string{st.url}, st.replicas...)); err != nil {
		return nil, nil, err
	}
	step("fleet.ready")
	for _, i := range sp.Test {
		st.pool = append(st.pool, d.Values[i])
	}
	return st, steps, nil
}

// listen serves h on a loopback port; stop closes the server and waits for
// its accept loop to end.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// readyTimeout bounds how long set-up waits for a server to report ready.
const readyTimeout = 10 * time.Second

// waitReady polls each base URL's /readyz until it answers 200.
func waitReady(ctx context.Context, urls []string) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for _, u := range urls {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if !sleepUntil(ctx, time.Now().Add(time.Millisecond)) {
				return fmt.Errorf("%s never became ready", u)
			}
		}
	}
	return nil
}

// classifyPool answers every pooled row through eval.Artifact.ClassifyRow,
// the reference served answers must equal, on workers goroutines.
func classifyPool(art *eval.Artifact, pool [][]float64, workers int) ([]answer, error) {
	out := make([]answer, len(pool))
	err := forEach(len(pool), workers, func(i int) error {
		class, conf, err := art.ClassifyRow(pool[i])
		if err != nil {
			return fmt.Errorf("ClassifyRow on pooled row %d: %w", i, err)
		}
		out[i] = newAnswer(class, conf)
		return nil
	})
	return out, err
}

// runServing runs one serving workload: a discarded warm-up, then cycles
// rounds of a fixed-rate open-loop phase (latency, CPU per request) and a
// closed-loop phase with one client per in-flight slot (capacity). Every
// answer is checked against eval.Artifact.ClassifyRow afterwards. A traced
// run traces every other closed phase and then replays the request layers
// the servers do not time on the pool.
//
// As in bstcd, the core and miner counters stay unbound while serving:
// bound, their inner-loop atomic increments doubled a paper-scale row's
// cost alone and made two rows in flight each take eight times as long on
// a 2-core host.
func runServing(ctx context.Context, e *env, name string, sv serveSpec) (*result, error) {
	r := newResult(name, e)
	var reps []setupRep
	st, err := repeatSetup(e.spec, &reps, func(rep int) (*stack, []setupStep, error) {
		return buildStack(ctx, e, name, sv, rep)
	}, (*stack).Close)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	setSetup(r, reps)

	bodies := make([][]byte, len(st.pool))
	for i, row := range st.pool {
		if bodies[i], err = json.Marshal(serve.Request{Values: row}); err != nil {
			return nil, err
		}
	}
	measured := e.seconds - e.spec.Warmup
	if measured <= 0 {
		return nil, fmt.Errorf("-seconds must exceed the %v warm-up", e.spec.Warmup)
	}
	cycle := measured / cycles
	openFor := time.Duration(openShare * float64(cycle))
	closedFor := cycle - openFor
	lg := newLoadgen(st.url, bodies, e.workers, e.seed)
	defer lg.close()
	rng := rand.New(rand.NewSource(e.seed))

	shots := lg.open(ctx, "warm", poisson(rng, sv.Rate, e.spec.Warmup, len(bodies)), false)
	var (
		open, closed, traced   []shot
		closedWall, tracedWall time.Duration
		cpuOpen                time.Duration
		openDelta              = obs.Snapshot{Counters: map[string]int64{}, Hists: map[string]obs.HistSummary{}}
		before                 = e.reg.Snapshot()
	)
	for c := 0; c < cycles; c++ {
		snap, cpu0 := e.reg.Snapshot(), cpuTime()
		open = append(open, lg.open(ctx, fmt.Sprintf("open%d", c), poisson(rng, sv.Rate, openFor, len(bodies)), false)...)
		cpuOpen += cpuTime() - cpu0
		addDelta(openDelta, e.reg.Snapshot().DeltaFrom(snap))
		// A traced run traces every other closed phase; the untraced ones
		// between them are its baseline for trace.overhead_frac.
		tr := e.traced && c%2 == 1
		s, wall := lg.closed(ctx, fmt.Sprintf("closed%d", c), e.workers, closedFor, rng.Perm(len(bodies)), tr)
		if tr {
			traced, tracedWall = append(traced, s...), tracedWall+wall
		} else {
			closed, closedWall = append(closed, s...), closedWall+wall
		}
	}
	allDelta := e.reg.Snapshot().DeltaFrom(before)
	shots = append(append(append(shots, open...), closed...), traced...)
	if e.traced {
		r.set("trace.overhead_frac", 1-ratio(okRate(traced, tracedWall), okRate(closed, closedWall)))
	}

	var openMS []float64
	var late int
	var lateMS []float64
	for _, s := range open {
		if s.err == "" {
			openMS = append(openMS, ms(s.latency()))
		}
		if s.late() >= lateThreshold {
			late++
		}
		lateMS = append(lateMS, ms(s.late()))
	}
	if p50, ok := latencyDetail(r, "open", openMS); ok {
		r.set("p50_ms", p50)
	}
	r.set("ops_per_s", okRate(closed, closedWall))
	r.set("cpu_ms_per_op", ratio(ms(cpuOpen), float64(len(openMS))))
	r.set("loadgen.late_frac", ratio(float64(late), float64(len(open))))
	r.set("open.late_mean_ms", mean(lateMS))
	r.set("open.offered_rps", float64(len(open))/(cycles*openFor).Seconds())

	histMS := func(name string) float64 {
		h := openDelta.Hists[name]
		return ratio(float64(h.Sum), float64(h.Count)) / 1e6
	}
	layerMS := map[string]float64{
		"discretize.transform": histMS("phase.serve/discretize"),
		"serve.classify":       histMS("phase.serve/classify"),
		"serve.queue_wait":     histMS("serve.queue_wait_ns"),
	}
	for l, v := range layerMS {
		r.set(l+"_ms", v)
	}
	c := openDelta.Counters
	r.set("serve.batch_size.mean", ratio(float64(c["serve.batch_samples"]), float64(c["serve.batches"])))
	for _, name := range []string{"serve.shed", "serve.deadline_exceeded", "fleet.retries", "fleet.hedges", "fleet.hedge_wins"} {
		r.set(name, float64(allDelta.Counters[name]))
	}
	r.set("fleet.hedge_win_ratio", ratio(float64(allDelta.Counters["fleet.hedge_wins"]), float64(allDelta.Counters["fleet.hedges"])))

	if e.traced {
		hop, err := tracedLayers(ctx, e, r, st, bodies, mean(openMS), layerMS)
		if err != nil {
			return nil, err
		}
		shots = append(shots, hop...)
	}

	want, err := classifyPool(st.art, st.pool, e.workers)
	if err != nil {
		return nil, err
	}
	wrong := 0
	for _, s := range shots {
		r.Attempted++
		switch got := newAnswer(s.class, s.confidence); {
		case s.err != "":
			r.opFailed("row %d: %s", s.row, s.err)
		case got != want[s.row]:
			wrong++
			r.opFailed("row %d answered %+v, ClassifyRow says %+v", s.row, got, want[s.row])
		}
	}
	r.checkOps("served answers equal Artifact.ClassifyRow", wrong, len(shots))
	return r, e.checkGolden(r, golden{Answers: want})
}

// addDelta adds the counter and histogram increases of one interval to acc.
func addDelta(acc, d obs.Snapshot) {
	for name, v := range d.Counters {
		acc.Counters[name] += v
	}
	for name, h := range d.Hists {
		a := acc.Hists[name]
		a.Count += h.Count
		a.Sum += h.Sum
		acc.Hists[name] = a
	}
}

// okRate is answered requests per second of wall.
func okRate(shots []shot, wall time.Duration) float64 {
	n := 0
	for _, s := range shots {
		if s.err == "" {
			n++
		}
	}
	return ratio(float64(n), wall.Seconds())
}

// tracedLayers attributes the client's mean fixed-rate latency to request
// layers: layerMS arrives with transform, queue wait and batch classify from
// the servers' histograms, and gains decode, BSTCE and encode, which have
// none, from a spanned replay of the pool and the gateway hop from paired
// sequential requests. It returns the hop measurement's requests for
// checking.
func tracedLayers(ctx context.Context, e *env, r *result, st *stack, bodies [][]byte, clientMS float64, layerMS map[string]float64) ([]shot, error) {
	replayed, err := replayRequests(ctx, e, st, bodies)
	if err != nil {
		return nil, err
	}
	maps.Copy(layerMS, replayed)
	evals, err := evalsPerRequest(st.art, bodies, e.workers)
	if err != nil {
		return nil, err
	}
	r.set("core.bstce.evals_per_req", evals)
	var hop []shot
	if st.url != st.replicas[0] {
		var hopMS float64
		hopMS, hop = measureHop(ctx, st, bodies, e.seed)
		layerMS["fleet.hop"] = hopMS
	}
	attributed := 0.0
	for l, v := range layerMS {
		r.set(l+".share", ratio(v, clientMS))
		r.set(l+"_ms", v)
		if l != "core.bstce" { // runs inside serve.classify
			attributed += v
		}
	}
	r.set("client_mean_ms", clientMS)
	r.set("layers.unattributed_frac", 1-ratio(attributed, clientMS))
	return hop, nil
}

// evalProbeRequests is how many pooled rows evalsPerRequest sends.
const evalProbeRequests = 4

// evalsPerRequest counts BSTCE table evaluations per request on the served
// path. The core counters are too costly to bind under load, so they are
// bound for a private server alone: built after binding, it answers a few
// pooled rows one at a time and is drained before they are unbound.
func evalsPerRequest(art *eval.Artifact, bodies [][]byte, workers int) (float64, error) {
	reg := obs.NewRegistry()
	eval.SetMetrics(reg)
	defer eval.SetMetrics(nil)
	srv := serve.New(art, serve.Config{Workers: workers, Registry: reg})
	h := srv.Handler()
	for _, body := range bodies[:min(evalProbeRequests, len(bodies))] {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			srv.Close()
			return 0, fmt.Errorf("evaluation-count probe: status %d: %s", rec.Code, rec.Body)
		}
	}
	srv.Close()
	c := reg.Snapshot().Counters
	return ratio(float64(c["core.bstce.evals"]), float64(c["serve.ok"])), nil
}

// replayRequests times the request layers the servers export no histogram
// for, on every pooled row in turn, each call inside a span: JSON decode of
// the request body, one Classifier.ValuesInto pass over all classes, and
// JSON encode of the answer. It returns mean milliseconds per call by
// layer.
func replayRequests(ctx context.Context, e *env, st *stack, bodies [][]byte) (map[string]float64, error) {
	rctx, root := e.tracer.StartRoot(ctx, "bstcperf/replay", trace.SpanContext{})
	defer root.End()
	busy := map[string]time.Duration{}
	timed := func(layer string, f func() error) error {
		_, span := trace.Start(rctx, layer)
		err := f()
		span.SetError(err)
		busy[layer] += span.End()
		if err != nil {
			return fmt.Errorf("replaying %s: %w", layer, err)
		}
		return nil
	}
	values := make([]float64, len(st.art.Classifier.Tables))
	for i, body := range bodies {
		var req serve.Request
		if err := timed("serve.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
			return nil, err
		}
		q, err := st.art.TransformRow(req.Values)
		if err != nil {
			return nil, fmt.Errorf("TransformRow on pooled row %d: %w", i, err)
		}
		timed("core.bstce", func() error { //nolint:errcheck // never fails
			st.art.Classifier.ValuesInto(values, q)
			return nil
		})
		if err := timed("serve.encode", func() error {
			_, err := json.Marshal(serve.Response{Class: st.art.Classifier.ClassNames[0], Confidence: values[0], ModelVersion: "v1"})
			return err
		}); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for l, d := range busy {
		out[l] = ms(d) / float64(len(bodies))
	}
	return out, nil
}

// measureHop estimates the gateway's added latency: one client alternates
// requests straight to replica 0 and through the gateway, and the hop is
// the difference of the two medians.
func measureHop(ctx context.Context, st *stack, bodies [][]byte, seed int64) (float64, []shot) {
	direct := newLoadgen(st.replicas[0], bodies, 1, seed)
	defer direct.close()
	gateway := newLoadgen(st.url, bodies, 1, seed)
	defer gateway.close()
	var shots []shot
	var directMS, gatewayMS []float64
	for i := 0; i < hopRequests; i++ {
		for _, side := range []struct {
			g   *loadgen
			lat *[]float64
		}{{direct, &directMS}, {gateway, &gatewayMS}} {
			s := shot{row: i % len(bodies), due: time.Now()}
			side.g.fire(ctx, &s, side.g.key("hop", i), false)
			*side.lat = append(*side.lat, ms(s.latency()))
			shots = append(shots, s)
		}
	}
	return median(gatewayMS) - median(directMS), shots
}
