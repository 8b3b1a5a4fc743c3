// Command bstcload drives classify load at a bstcd fleet and reports
// latency, throughput, and SLO attainment.
//
//	bstcload -url http://host:8080 [-concurrency 8] [-duration 5s]
//	bstcload -model model.bstc [-requests 2000]     (self-hosted target)
//	bstcload -synth [-requests 2000]                (self-contained smoke)
//	bstcload -fleet http://h1:8080,http://h2:8080   (external fleet)
//	bstcload -synth -fleet-replicas 3               (self-hosted fleet)
//	         [-seed 1] [-batch 32] [-report load.json] [-min-rps 100]
//	         [-max-p99 250ms] [-max-failed 0] [-timeout 5s]
//
// Exactly one target: -url aims at a running daemon, -model boots the
// serving tier in-process on a loopback port around that artifact file, and
// -synth does the same around a model trained on a synthetic expression
// matrix (no inputs needed — this is the CI smoke mode).
//
// Fleet mode drives the multi-replica path end to end: -fleet lists
// external replica URLs, while -model/-synth with -fleet-replicas N boots N
// identical in-process replicas. Either way an in-process fleet gateway
// (the same routing/retry/hedge engine as cmd/bstcgw) fronts the replicas
// and the load goes through it, so the report additionally carries a
// "fleet" section (retries, hedges, hedge wins, ejections, restores) read
// from the fleet's own counters. -max-failed turns any dropped request into
// a non-zero exit — the chaos-run CI gate.
//
// The generator is deterministic in -seed: the row mix, the order workers
// claim requests, and every X-Routing-Key are derived from it, so two runs
// against the same fleet split identically across a canary. Rows come from
// the synthetic training matrix in -synth mode and from seeded uniform
// draws (sized by GET /v1/model's gene count) otherwise.
//
// The report (written to -report, else stdout) captures request/ok/failure
// counts, wall time, throughput, latency quantiles (p50/p90/p95/p99/max),
// a per-HTTP-status histogram, per-model-version answer counts (from
// X-Model-Version — a live canary shows up as two buckets), and the
// server's /v1/model and /slo documents. -min-rps and -max-p99 turn the
// run into a gate: the process exits non-zero when the fleet misses them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bstc/internal/eval"
	"bstc/internal/fleet"
	"bstc/internal/obs"
	"bstc/internal/serve"
	"bstc/internal/synth"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bstcload:", err)
		os.Exit(1)
	}
}

// Report is the load run's result document; EXPERIMENTS.md documents the
// schema.
type Report struct {
	Target        string          `json:"target"`
	Seed          int64           `json:"seed"`
	Concurrency   int             `json:"concurrency"`
	Requests      int             `json:"requests"`
	OK            int             `json:"ok"`
	Failures      int             `json:"failures"`
	DurationSecs  float64         `json:"duration_seconds"`
	ThroughputRPS float64         `json:"throughput_rps"`
	LatencyMS     Quantiles       `json:"latency_ms"`
	Status        map[string]int  `json:"status"`
	Versions      map[string]int  `json:"versions"`
	Model         json.RawMessage `json:"model,omitempty"`
	SLO           json.RawMessage `json:"slo,omitempty"`
	Fleet         *FleetStats     `json:"fleet,omitempty"`
}

// FleetStats is the fleet-mode report section: the gateway's own counters,
// so a chaos run shows how hard the fault-tolerance machinery worked, not
// just that the answers arrived.
type FleetStats struct {
	Replicas             int   `json:"replicas"`
	Retries              int64 `json:"retries"`
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	Hedges               int64 `json:"hedges"`
	HedgeWins            int64 `json:"hedge_wins"`
	Ejections            int64 `json:"ejections"`
	Restores             int64 `json:"restores"`
	FailOpen             int64 `json:"fail_open"`
}

// Quantiles summarizes a latency distribution in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// sample is one completed request.
type sample struct {
	nanos   int64
	status  int
	version string
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bstcload", flag.ContinueOnError)
	url := fs.String("url", "", "base URL of a running bstcd (this, -model, or -synth is required)")
	model := fs.String("model", "", "serve this artifact file in-process and load against it")
	synthMode := fs.Bool("synth", false, "train a synthetic model in-process and load against it")
	seed := fs.Int64("seed", 1, "seeds the row mix and routing keys; same seed, same canary split")
	concurrency := fs.Int("concurrency", 8, "concurrent load workers")
	requests := fs.Int("requests", 0, "stop after this many requests (0: run for -duration)")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive load when -requests is 0")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	batch := fs.Int("batch", 0, "micro-batch size for the self-hosted server (default 32)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "batch workers per model version for the self-hosted server")
	reportPath := fs.String("report", "", "write the JSON report here (default: stdout)")
	minRPS := fs.Float64("min-rps", 0, "fail the run below this throughput (0 disables)")
	maxP99 := fs.Duration("max-p99", 0, "fail the run above this p99 latency (0 disables)")
	maxFailed := fs.Int("max-failed", -1, "fail the run above this many failed requests (negative disables; 0 means any failure fails)")
	fleetURLs := fs.String("fleet", "", "comma-separated replica URLs to front with an in-process fleet gateway")
	fleetN := fs.Int("fleet-replicas", 0, "boot this many in-process replicas behind a fleet gateway (with -model or -synth)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := 0
	for _, set := range []bool{*url != "", *model != "", *synthMode, *fleetURLs != ""} {
		if set {
			targets++
		}
	}
	if targets != 1 {
		return fmt.Errorf("exactly one of -url, -model, -synth, or -fleet is required")
	}
	if *fleetN > 0 && *model == "" && !*synthMode {
		return fmt.Errorf("-fleet-replicas needs a self-hosted model (-model or -synth)")
	}
	if *fleetN > 0 && *fleetURLs != "" {
		return fmt.Errorf("-fleet-replicas and -fleet are mutually exclusive")
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1")
	}

	// Self-hosted targets: boot the serving tier on a loopback port —
	// several of them when a fleet was asked for.
	base := *url
	members := splitList(*fleetURLs)
	var rows [][]float64
	if base == "" && len(members) == 0 {
		art, trainRows, err := selfArtifact(*model, *synthMode, *seed)
		if err != nil {
			return err
		}
		defer art.Close() // deferred first, so it runs after the servers drain
		rows = trainRows
		replicas := maxInt(1, *fleetN)
		urls := make([]string, replicas)
		for i := range urls {
			s := serve.New(art.Artifact, serve.Config{
				BatchSize:   *batch,
				Workers:     *workers,
				MaxInFlight: maxInt(128, 4**concurrency),
				Registry:    obs.NewRegistry(),
			})
			defer s.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			httpSrv := &http.Server{Handler: s.Handler()}
			go httpSrv.Serve(ln)
			defer httpSrv.Close()
			urls[i] = "http://" + ln.Addr().String()
		}
		if *fleetN > 0 {
			members = urls
		} else {
			base = urls[0]
		}
	}

	// Fleet mode: an in-process gateway fronts the members and the load goes
	// through it, exercising routing, retries, and hedging exactly as
	// cmd/bstcgw would.
	var fleetReg *obs.Registry
	if len(members) > 0 {
		fleetReg = obs.NewRegistry()
		fc, err := fleet.New(fleet.Config{
			Replicas: members,
			Seed:     uint64(*seed),
			Registry: fleetReg,
		})
		if err != nil {
			return err
		}
		defer fc.Close()
		probeCtx, stopProbes := context.WithCancel(ctx)
		defer stopProbes()
		fc.Start(probeCtx)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		gwSrv := &http.Server{Handler: fleet.NewGateway(fc, fleetReg, nil).Handler()}
		go gwSrv.Serve(ln)
		defer gwSrv.Close()
		base = "http://" + ln.Addr().String()
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}
	modelDoc, err := getJSON(client, base+"/v1/model")
	if err != nil {
		return fmt.Errorf("target %s: %w", base, err)
	}
	if rows == nil {
		rows, err = syntheticRows(modelDoc, *seed)
		if err != nil {
			return err
		}
	}
	bodies := make([][]byte, len(rows))
	for i, row := range rows {
		if bodies[i], err = json.Marshal(map[string][]float64{"values": row}); err != nil {
			return err
		}
	}

	// Drive the load: workers claim globally-ordered request slots, so the
	// i-th request always carries the same row and routing key regardless
	// of scheduling.
	runCtx := ctx
	if *requests == 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		perWork = make([][]sample, *concurrency)
	)
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if *requests > 0 && int(i) >= *requests {
					return
				}
				if runCtx.Err() != nil {
					return
				}
				perWork[w] = append(perWork[w], fire(client, base, bodies[int(i)%len(bodies)], i, *seed))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Aggregate.
	rep := Report{
		Target:       base,
		Seed:         *seed,
		Concurrency:  *concurrency,
		DurationSecs: elapsed.Seconds(),
		Status:       map[string]int{},
		Versions:     map[string]int{},
		Model:        modelDoc,
	}
	var lat []int64
	for _, samples := range perWork {
		for _, s := range samples {
			rep.Requests++
			if s.status == http.StatusOK {
				rep.OK++
				lat = append(lat, s.nanos)
			} else {
				rep.Failures++
			}
			rep.Status[fmt.Sprint(s.status)]++
			if s.version != "" {
				rep.Versions[s.version]++
			}
		}
	}
	if rep.Requests == 0 {
		return fmt.Errorf("no requests completed against %s", base)
	}
	rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.LatencyMS = quantiles(lat)
	if doc, err := getJSON(client, base+"/slo"); err == nil {
		rep.SLO = doc
	}
	if fleetReg != nil {
		rep.Fleet = &FleetStats{
			Replicas:             len(members),
			Retries:              fleetReg.Counter("fleet.retries").Value(),
			RetryBudgetExhausted: fleetReg.Counter("fleet.retry_budget_exhausted").Value(),
			Hedges:               fleetReg.Counter("fleet.hedges").Value(),
			HedgeWins:            fleetReg.Counter("fleet.hedge_wins").Value(),
			Ejections:            fleetReg.Counter("fleet.ejections").Value(),
			Restores:             fleetReg.Counter("fleet.restores").Value(),
			FailOpen:             fleetReg.Counter("fleet.fail_open").Value(),
		}
	}

	fmt.Fprintf(stdout, "bstcload: %d requests in %.2fs (%.0f rps), ok=%d fail=%d, p50=%.2fms p99=%.2fms max=%.2fms\n",
		rep.Requests, rep.DurationSecs, rep.ThroughputRPS, rep.OK, rep.Failures,
		rep.LatencyMS.P50, rep.LatencyMS.P99, rep.LatencyMS.Max)
	if rep.Fleet != nil {
		fmt.Fprintf(stdout, "bstcload: fleet of %d replicas, retries=%d hedges=%d (wins=%d) ejections=%d restores=%d\n",
			rep.Fleet.Replicas, rep.Fleet.Retries, rep.Fleet.Hedges, rep.Fleet.HedgeWins,
			rep.Fleet.Ejections, rep.Fleet.Restores)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, out, 0o644); err != nil {
			return err
		}
	} else {
		stdout.Write(out)
	}

	// Gates last, so the report lands even on a failed run.
	if *minRPS > 0 && rep.ThroughputRPS < *minRPS {
		return fmt.Errorf("throughput %.1f rps below -min-rps %.1f", rep.ThroughputRPS, *minRPS)
	}
	if *maxP99 > 0 && rep.LatencyMS.P99 > float64(maxP99.Nanoseconds())/1e6 {
		return fmt.Errorf("p99 %.2fms above -max-p99 %s", rep.LatencyMS.P99, maxP99)
	}
	if *maxFailed >= 0 && rep.Failures > *maxFailed {
		return fmt.Errorf("%d failed requests above -max-failed %d (status %v)", rep.Failures, *maxFailed, rep.Status)
	}
	return nil
}

// splitList parses a comma-separated flag: whitespace tolerated, empties
// dropped.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// fire sends one classify request and records its outcome. Failures to even
// get a response count as status 0.
func fire(client *http.Client, base string, body []byte, i int64, seed int64) sample {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return sample{status: 0}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RoutingKeyHeader, fmt.Sprintf("load-%d-%d", seed, i))
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{nanos: time.Since(start).Nanoseconds(), status: 0}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{
		nanos:   time.Since(start).Nanoseconds(),
		status:  resp.StatusCode,
		version: resp.Header.Get(serve.ModelVersionHeader),
	}
}

// selfArtifact produces the model for a self-hosted target: mapped from the
// -model file, or trained on a seeded synthetic expression matrix (which
// has no mapping to release on Close). The returned rows, when non-nil, are
// real samples to classify.
func selfArtifact(path string, synthMode bool, seed int64) (*eval.MappedArtifact, [][]float64, error) {
	if synthMode {
		p := synth.Profile{
			Name:            "loadgen",
			NumGenes:        60,
			ClassNames:      []string{"tumor", "normal"},
			ClassSizes:      []int{40, 40},
			InformativeFrac: 0.3,
			Separation:      2.5,
			Dropout:         0.05,
			Seed:            seed,
		}
		c, err := p.Generate()
		if err != nil {
			return nil, nil, err
		}
		art, err := eval.TrainArtifact(c, nil, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, nil, err
		}
		return &eval.MappedArtifact{Artifact: art}, c.Values, nil
	}
	art, err := eval.LoadArtifactMapped(path)
	if err != nil {
		return nil, nil, fmt.Errorf("load %s: %w", path, err)
	}
	return art, nil, nil
}

// syntheticRows derives a seeded row mix for an external target from its
// advertised gene count.
func syntheticRows(modelDoc json.RawMessage, seed int64) ([][]float64, error) {
	var meta struct {
		Genes int `json:"genes"`
	}
	if err := json.Unmarshal(modelDoc, &meta); err != nil {
		return nil, err
	}
	if meta.Genes <= 0 {
		return nil, fmt.Errorf("target reports %d genes", meta.Genes)
	}
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 64)
	for i := range rows {
		row := make([]float64, meta.Genes)
		for g := range row {
			row[g] = r.Float64() * 10
		}
		rows[i] = row
	}
	return rows, nil
}

// getJSON fetches one endpoint and returns its raw body.
func getJSON(client *http.Client, url string) (json.RawMessage, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// quantiles summarizes sorted latencies in milliseconds.
func quantiles(sorted []int64) Quantiles {
	if len(sorted) == 0 {
		return Quantiles{}
	}
	at := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return float64(sorted[i]) / 1e6
	}
	return Quantiles{
		P50: at(0.50),
		P90: at(0.90),
		P95: at(0.95),
		P99: at(0.99),
		Max: float64(sorted[len(sorted)-1]) / 1e6,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
