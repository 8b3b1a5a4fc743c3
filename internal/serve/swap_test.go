package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/fault"
	"bstc/internal/obs"
)

// testArtifactFlipped trains on the same continuous data as testArtifact
// but with the class labels inverted, so the two artifacts give opposite
// answers for every separable sample — a response's body proves which
// version produced it.
func testArtifactFlipped(t testing.TB) *eval.Artifact {
	t.Helper()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat", "wide"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{1, 1, 1, 1, 0, 0, 0, 0},
		Values: [][]float64{
			{1.0, 7, 0.1}, {1.2, 7, 0.2}, {1.4, 7, 0.3}, {1.6, 7, 0.35},
			{8.0, 7, 0.9}, {8.2, 7, 0.95}, {8.4, 7, 1.0}, {8.6, 7, 1.1},
		},
	}
	art, err := eval.TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// expectedBodyVersion is expectedBody for an explicit model version.
func expectedBodyVersion(t testing.TB, art *eval.Artifact, row []float64, version string) []byte {
	t.Helper()
	class, conf, err := art.ClassifyRow(row)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Response{
		Class:        art.Classifier.ClassNames[class],
		ClassIndex:   class,
		Confidence:   conf,
		ModelVersion: version,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postClassifyKey posts one sample with an explicit routing key and returns
// status, body, and the X-Model-Version header.
func postClassifyKey(t testing.TB, url, body, key string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/classify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(RoutingKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get(ModelVersionHeader)
}

// sloNames returns the names currently reported by the server's SLO set.
func sloNames(s *Server) map[string]bool {
	names := map[string]bool{}
	for _, rep := range s.slos.Report() {
		names[rep.Name] = true
	}
	return names
}

// TestSwapAtomicUnderLoad is the swap-atomicity guarantee: under sustained
// concurrent load, a hot swap v1 → v2 must (a) attribute every response to
// exactly one version whose classification it matches byte-for-byte —
// never a mix, (b) answer every admitted request (counts conserve), and
// (c) leave only v2 serving once the old version has drained, with v1's
// per-version SLOs retired from /slo and the per-version ok counters
// summing to the global one.
func TestSwapAtomicUnderLoad(t *testing.T) {
	art1, art2 := testArtifact(t), testArtifactFlipped(t)
	samples := testSamples()
	expected := map[string][][]byte{"v1": {}, "v2": {}}
	for _, row := range samples {
		expected["v1"] = append(expected["v1"], expectedBodyVersion(t, art1, row, "v1"))
		expected["v2"] = append(expected["v2"], expectedBodyVersion(t, art2, row, "v2"))
	}

	reg := obs.NewRegistry()
	s := New(art1, Config{BatchSize: 4, MaxInFlight: 256, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	const workers = 8
	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		byVer   = map[string]int{}
		sent    int
		answers int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := samples[(w+i)%len(samples)]
				status, body := postClassify(t, ts.URL, valuesBody(t, row))
				mu.Lock()
				sent++
				mu.Unlock()
				if status != http.StatusOK {
					t.Errorf("status %d during swap: %s", status, body)
					return
				}
				var resp Response
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("bad response: %v", err)
					return
				}
				want, ok := expected[resp.ModelVersion]
				if !ok {
					t.Errorf("response attributed to unknown version %q", resp.ModelVersion)
					return
				}
				if !bytes.Equal(body, want[(w+i)%len(samples)]) {
					t.Errorf("version %s response mixed across versions:\ngot  %swant %s",
						resp.ModelVersion, body, want[(w+i)%len(samples)])
					return
				}
				mu.Lock()
				byVer[resp.ModelVersion]++
				answers++
				mu.Unlock()
			}
		}(w)
	}

	// Let v1 serve some load, swap mid-flight, keep the load running.
	waitFor := func(version string, n int) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			got := byVer[version]
			mu.Unlock()
			if got >= n {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("never saw %d responses from %s (have %v)", n, version, byVer)
	}
	waitFor("v1", 50)
	if err := s.Apply(Update{Stable: &Model{Version: "v2", Artifact: art2}}); err != nil {
		t.Fatal(err)
	}
	waitFor("v2", 50)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if sent != answers {
		t.Errorf("answers lost in the swap: sent %d, verified %d", sent, answers)
	}
	if byVer["v1"] == 0 || byVer["v2"] == 0 {
		t.Fatalf("load did not straddle the swap: %v", byVer)
	}

	// Drain completes, and only v2 remains observable.
	if !s.waitRetired(5 * time.Second) {
		t.Fatal("v1 never finished retiring")
	}
	status, body := postClassify(t, ts.URL, valuesBody(t, samples[0]))
	if status != http.StatusOK || !bytes.Equal(body, expected["v2"][0]) {
		t.Errorf("post-swap request not served by v2: %d %s", status, body)
	}
	names := sloNames(s)
	if names["classify_availability@v1"] || names["classify_latency@v1"] {
		t.Error("retired v1 SLOs still reported")
	}
	if !names["classify_availability@v2"] || !names["classify_latency@v2"] {
		t.Error("live v2 SLOs missing from the set")
	}
	snap := reg.Snapshot()
	perVersion := snap.Counters[`serve.ok{version="v1"}`] + snap.Counters[`serve.ok{version="v2"}`]
	if global := snap.Counters["serve.ok"]; perVersion != global {
		t.Errorf("per-version ok counters sum to %d, global is %d", perVersion, global)
	}
	if snap.Counters["serve.swaps"] != 1 {
		t.Errorf("serve.swaps = %d, want 1", snap.Counters["serve.swaps"])
	}
	if gen := snap.Gauges["serve.route_generation"]; gen != 2 {
		t.Errorf("serve.route_generation = %d, want 2", gen)
	}
	if s.Generation() != 2 {
		t.Errorf("Generation() = %d, want 2", s.Generation())
	}
}

// TestCanaryDeterminism pins the canary split contract: the hash routing is
// a pure function of (seed, routing key, percent) — the server's picks
// match routePermille's split exactly, a second server with the same seed routes
// byte-identically, every response's body matches the version that claims
// it, and /v1/model advertises the live split.
func TestCanaryDeterminism(t *testing.T) {
	art1, art2 := testArtifact(t), testArtifactFlipped(t)
	row := testSamples()[0]
	body := valuesBody(t, row)
	const (
		seed    = uint64(0xfeedbeef)
		percent = 30.0
	)
	wantBody := map[string][]byte{
		"v1": expectedBodyVersion(t, art1, row, "v1"),
		"v2": expectedBodyVersion(t, art2, row, "v2"),
	}

	newCanaried := func() (*Server, *httptest.Server) {
		s := New(art1, Config{BatchSize: 1, MaxInFlight: 64})
		err := s.Apply(Update{
			Stable:        &Model{Version: "v1", Artifact: art1},
			Canary:        &Model{Version: "v2", Artifact: art2},
			CanaryPercent: percent,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	sA, tsA := newCanaried()
	defer tsA.Close()
	defer sA.Close()
	sB, tsB := newCanaried()
	defer tsB.Close()
	defer sB.Close()

	if stable, canary, pct := sA.Route(); stable != "v1" || canary != "v2" || pct != percent {
		t.Fatalf("Route() = (%s, %s, %v), want (v1, v2, %v)", stable, canary, pct, percent)
	}

	canaried := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("client-%d", i)
		want := "v1"
		if routePermille(seed, []byte(key)) < permilleOf(percent) {
			want = "v2"
			canaried++
		}
		for name, ts := range map[string]*httptest.Server{"A": tsA, "B": tsB} {
			status, got, header := postClassifyKey(t, ts.URL, body, key)
			if status != http.StatusOK {
				t.Fatalf("server %s key %s: status %d: %s", name, key, status, got)
			}
			if header != want {
				t.Fatalf("server %s key %s routed to %s, want %s", name, key, header, want)
			}
			if !bytes.Equal(got, wantBody[want]) {
				t.Fatalf("server %s key %s: body does not match version %s:\n%s", name, key, want, got)
			}
		}
	}
	if canaried == 0 || canaried == 200 {
		t.Fatalf("degenerate split: %d/200 keys canaried", canaried)
	}
	// The deterministic split for this seed is a fixed constant; pin it so
	// a hash change cannot slip by as "still roughly 30%".
	if canaried != 61 {
		t.Errorf("canaried keys = %d, want the pinned 61 for seed %#x", canaried, seed)
	}

	// Without a routing key the body is the key: the same sample always
	// lands on the same side, on both servers.
	_, first, headerA := postClassifyKey(t, tsA.URL, body, "")
	for i := 0; i < 10; i++ {
		_, again, header := postClassifyKey(t, tsA.URL, body, "")
		if header != headerA || !bytes.Equal(first, again) {
			t.Fatalf("body-keyed routing flapped: %s then %s", headerA, header)
		}
		_, _, headerB := postClassifyKey(t, tsB.URL, body, "")
		if headerB != headerA {
			t.Fatalf("servers disagree on body-keyed routing: %s vs %s", headerA, headerB)
		}
	}

	// /v1/model advertises the split.
	resp, err := http.Get(tsA.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Version    string `json:"version"`
		Generation int64  `json:"generation"`
		Canary     *struct {
			Version string  `json:"version"`
			Percent float64 `json:"percent"`
		} `json:"canary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Version != "v1" || meta.Generation != 2 {
		t.Errorf("/v1/model = %+v, want stable v1 at generation 2", meta)
	}
	if meta.Canary == nil || meta.Canary.Version != "v2" || meta.Canary.Percent != percent {
		t.Errorf("/v1/model canary = %+v, want v2 at %v%%", meta.Canary, percent)
	}
}

// TestSwapDrainsInFlight pins drain-old semantics: requests already routed
// to v1 when the swap lands — one in the batch v1's worker is holding and
// one waiting in v1's queue behind it — must still be answered by v1,
// byte-identical to v1's classification, while new requests go to v2; and
// once v2 itself is swapped away, its Release hook fires exactly once after
// the drain.
func TestSwapDrainsInFlight(t *testing.T) {
	in := holdWorker(t, 100*time.Millisecond)
	art1, art2 := testArtifact(t), testArtifactFlipped(t)
	row := testSamples()[0]
	s := New(art1, Config{MaxInFlight: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Hold v1's worker on one request and park a second in v1's queue.
	type answer struct {
		status int
		body   []byte
	}
	parked := make(chan answer, 2)
	start := time.Now()
	post := func() {
		status, body := postClassify(t, ts.URL, valuesBody(t, row))
		parked <- answer{status, body}
	}
	go post()
	waitHeld(t, in)
	go post()
	waitQueued(t, s.route.Load().stable, 1)
	if s.InFlight() != 2 {
		t.Fatalf("%d requests in flight, want 2", s.InFlight())
	}

	released := make(chan struct{})
	err := s.Apply(Update{Stable: &Model{
		Version: "v2", Artifact: art2,
		Release: func() { close(released) },
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Both requests drain on v1, as soon as the 100ms hold ends:
	// retirement adds no wait of its own.
	for range 2 {
		got := <-parked
		if got.status != http.StatusOK {
			t.Fatalf("parked request: status %d: %s", got.status, got.body)
		}
		if want := expectedBodyVersion(t, art1, row, "v1"); !bytes.Equal(got.body, want) {
			t.Errorf("parked request not answered by v1:\ngot  %swant %s", got.body, want)
		}
	}
	if waited := time.Since(start); waited >= 400*time.Millisecond {
		t.Errorf("drained requests waited %v, well past the 100ms hold", waited)
	}
	if !s.waitRetired(5 * time.Second) {
		t.Fatal("v1 never finished retiring")
	}

	// New traffic is v2's.
	status, body := postClassify(t, ts.URL, valuesBody(t, row))
	if status != http.StatusOK || !bytes.Equal(body, expectedBodyVersion(t, art2, row, "v2")) {
		t.Errorf("post-swap request not served by v2: %d %s", status, body)
	}

	// Swapping v2 away fires its Release after the drain.
	if err := s.Apply(Update{Stable: &Model{Version: "v3", Artifact: art1}}); err != nil {
		t.Fatal(err)
	}
	if !s.waitRetired(5 * time.Second) {
		t.Fatal("v2 never finished retiring")
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("v2's Release hook never fired")
	}
}

// TestSwapUnderChaos injects faults into the swap and canary-pick sites:
// an aborted swap must leave the old version serving with the update's
// handles returned, and a canary-pick fault must degrade to the stable
// version instead of failing the request.
func TestSwapUnderChaos(t *testing.T) {
	in := fault.NewInjector(13)
	in.Set("serve.swap", fault.Rule{Prob: 1, MaxFires: 1, Err: fmt.Errorf("chaos: swap blocked")})
	fault.Enable(in)
	defer fault.Disable()

	art1, art2 := testArtifact(t), testArtifactFlipped(t)
	row := testSamples()[0]
	reg := obs.NewRegistry()
	s := New(art1, Config{BatchSize: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	released := false
	err := s.Apply(Update{Stable: &Model{
		Version: "v2", Artifact: art2,
		Release: func() { released = true },
	}})
	if err == nil || !strings.Contains(err.Error(), "swap aborted") {
		t.Fatalf("faulted Apply error = %v, want swap aborted", err)
	}
	if !released {
		t.Error("aborted swap did not return the update's handle")
	}
	if got := counterValue(reg, "serve.swap_failures"); got != 1 {
		t.Errorf("serve.swap_failures = %d, want 1", got)
	}
	if s.Generation() != 1 {
		t.Errorf("generation moved to %d on a failed swap", s.Generation())
	}
	// The old version is untouched and keeps serving.
	status, body := postClassify(t, ts.URL, valuesBody(t, row))
	if status != http.StatusOK || !bytes.Equal(body, expectedBodyVersion(t, art1, row, "v1")) {
		t.Fatalf("old version broken after aborted swap: %d %s", status, body)
	}

	// The rule is exhausted: the retried swap succeeds.
	if err := s.Apply(Update{Stable: &Model{Version: "v2", Artifact: art2}}); err != nil {
		t.Fatal(err)
	}
	if !s.waitRetired(5 * time.Second) {
		t.Fatal("v1 never retired after the successful retry")
	}

	// Canary-pick faults degrade to the stable version: install a 100%
	// canary, fault every pick, and the stable must answer anyway.
	if err := s.Apply(Update{
		Stable:        &Model{Version: "v2", Artifact: art2},
		Canary:        &Model{Version: "v4", Artifact: art1},
		CanaryPercent: 100,
	}); err != nil {
		t.Fatal(err)
	}
	in.Set("serve.canary", fault.Rule{Prob: 1, MaxFires: 2, Err: fmt.Errorf("chaos: pick failed")})
	status, body = postClassify(t, ts.URL, valuesBody(t, row))
	if status != http.StatusOK || !bytes.Equal(body, expectedBodyVersion(t, art2, row, "v2")) {
		t.Fatalf("canary fault did not fall back to stable: %d %s", status, body)
	}
	if got := counterValue(reg, "serve.canary_fallbacks"); got == 0 {
		t.Error("serve.canary_fallbacks did not move")
	}
	// With the rule exhausted the 100% canary takes the traffic again.
	in.Set("serve.canary", fault.Rule{})
	status, body = postClassify(t, ts.URL, valuesBody(t, row))
	if status != http.StatusOK || !bytes.Equal(body, expectedBodyVersion(t, art1, row, "v4")) {
		t.Fatalf("canary did not recover after fault rule expired: %d %s", status, body)
	}
}

// TestArtifactAccessDuringSwap pins the Server.Artifact data race fix:
// concurrent Artifact readers during a storm of swaps must be race-clean
// (the routing table is an atomic pointer) and always observe one of the
// two live artifacts, never a torn or stale-freed value.
func TestArtifactAccessDuringSwap(t *testing.T) {
	art1, art2 := testArtifact(t), testArtifactFlipped(t)
	s := New(art1, Config{BatchSize: 1})
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a := s.Artifact(); a != art1 && a != art2 {
					t.Error("Artifact() returned a model that was never installed")
					return
				}
			}
		}()
	}
	const swaps = 24
	arts := [2]*eval.Artifact{art2, art1}
	for i := 0; i < swaps; i++ {
		v := fmt.Sprintf("v%d", i+2)
		if err := s.Apply(Update{Stable: &Model{Version: v, Artifact: arts[i%2]}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.Generation(); got != swaps+1 {
		t.Errorf("generation = %d after %d swaps, want %d", got, swaps, swaps+1)
	}
	if !s.waitRetired(10 * time.Second) {
		t.Fatal("retirements did not converge")
	}
}

// TestApplyValidation pins Apply's error surface: bad updates are rejected
// before touching the routing table, and a draining server refuses swaps.
func TestApplyValidation(t *testing.T) {
	art := testArtifact(t)
	s := New(art, Config{BatchSize: 1})
	bad := []Update{
		{},
		{Stable: &Model{Version: "v2"}}, // no artifact
		{Stable: &Model{Artifact: art}}, // no version
		{Stable: &Model{Version: "v2", Artifact: art}, Canary: &Model{}},                             // bad canary
		{Stable: &Model{Version: "v2", Artifact: art}, Canary: &Model{Version: "v2", Artifact: art}}, // same version
		{Stable: &Model{Version: "v2", Artifact: art}, CanaryPercent: 101},
		{Stable: &Model{Version: "v2", Artifact: art}, CanaryPercent: -1},
	}
	for i, u := range bad {
		if err := s.Apply(u); err == nil {
			t.Errorf("bad update %d accepted", i)
		}
	}
	if s.Generation() != 1 {
		t.Errorf("generation = %d after rejected updates, want 1", s.Generation())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	released := false
	err := s.Apply(Update{Stable: &Model{
		Version: "v2", Artifact: art, Release: func() { released = true },
	}})
	if err == nil {
		t.Error("Apply on a drained server succeeded")
	}
	if !released {
		t.Error("Apply on a drained server leaked the update's handle")
	}
}

// chaosSeedEnv mirrors the eval package's CHAOS_SEED plumbing so the swap
// sweep joins the CI chaos matrix (make chaos): each matrix entry exports
// a different seed, and a failing schedule reproduces locally with the
// same value.
func chaosSeedEnv(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// TestSwapChaosSweep drives a seeded storm of hot swaps — probabilistic
// swap and canary-pick faults, concurrent verified load — and checks the
// serving invariants hold no matter which faults the schedule fires:
//
//   - every 200 response is byte-identical to the classification of the
//     version it claims, so no fault sequence ever mixes versions;
//   - Apply outcomes account exactly for the generation counter and the
//     swaps/swap_failures counters;
//   - the tier ends the storm serving whichever update last succeeded.
func TestSwapChaosSweep(t *testing.T) {
	seed := chaosSeedEnv(t)
	in := fault.NewInjector(seed)
	in.Set("serve.swap", fault.Rule{Prob: 0.25, Err: fmt.Errorf("chaos: swap blocked")})
	in.Set("serve.canary", fault.Rule{Prob: 0.10, Err: fmt.Errorf("chaos: pick failed")})
	fault.Enable(in)
	defer fault.Disable()

	art1, art2 := testArtifact(t), testArtifactFlipped(t)
	rows := testSamples()
	reg := obs.NewRegistry()
	s := New(art1, Config{BatchSize: 4, MaxInFlight: 256, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Every version the storm will install, registered up front so the load
	// workers can verify attribution without synchronizing with the swapper.
	const attempts = 30
	arts := map[string]*eval.Artifact{"v1": art1}
	for i := 2; i < attempts+2; i++ {
		stable, canary := art2, art1
		if i%2 == 1 {
			stable, canary = art1, art2
		}
		arts[fmt.Sprintf("v%d", i)] = stable
		arts[fmt.Sprintf("c%d", i)] = canary
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var verified atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := rows[i%len(rows)]
				status, body, ver := postClassifyKey(t, ts.URL, valuesBody(t, row), fmt.Sprintf("w%d-%d", w, i))
				if status != http.StatusOK {
					continue // load shedding under the storm is allowed; only 200s carry the invariant
				}
				art := arts[ver]
				if art == nil {
					t.Errorf("response claims unknown version %q", ver)
					return
				}
				if !bytes.Equal(body, expectedBodyVersion(t, art, row, ver)) {
					t.Errorf("version %s response diverged under chaos: %s", ver, body)
					return
				}
				verified.Add(1)
			}
		}(w)
	}

	okApplies, failApplies := 0, 0
	for i := 2; i < attempts+2; i++ {
		stable, canary := art2, art1
		if i%2 == 1 {
			stable, canary = art1, art2
		}
		u := Update{Stable: &Model{Version: fmt.Sprintf("v%d", i), Artifact: stable}}
		if i%3 == 0 {
			u.Canary = &Model{Version: fmt.Sprintf("c%d", i), Artifact: canary}
			u.CanaryPercent = 40
			u.Seed = uint64(seed)
		}
		if err := s.Apply(u); err != nil {
			if !strings.Contains(err.Error(), "swap aborted") {
				t.Fatalf("swap %d failed outside the fault site: %v", i, err)
			}
			failApplies++
		} else {
			okApplies++
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if verified.Load() == 0 {
		t.Fatal("the storm verified no responses")
	}
	if got := s.Generation(); got != int64(1+okApplies) {
		t.Errorf("generation = %d after %d successful swaps, want %d", got, okApplies, 1+okApplies)
	}
	if got := counterValue(reg, "serve.swaps"); got != int64(okApplies) {
		t.Errorf("serve.swaps = %d, want %d", got, okApplies)
	}
	if got := counterValue(reg, "serve.swap_failures"); got != int64(failApplies) {
		t.Errorf("serve.swap_failures = %d, want %d", got, failApplies)
	}
	// Whatever the last successful update was, it is still serving.
	stable, _, _ := s.Route()
	status, body, ver := postClassifyKey(t, ts.URL, valuesBody(t, rows[0]), "")
	if status != http.StatusOK {
		t.Fatalf("post-storm classify: status %d", status)
	}
	if art := arts[ver]; art == nil || !bytes.Equal(body, expectedBodyVersion(t, art, rows[0], ver)) {
		t.Fatalf("post-storm response from %q (stable %q) diverged: %s", ver, stable, body)
	}
}
