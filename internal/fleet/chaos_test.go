package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/serve"
)

// chaosHelperEnv carries the artifact path into the re-exec'd replica
// subprocess; unset means the helper test is inert.
const chaosHelperEnv = "BSTC_FLEET_REPLICA_MODEL"

// TestFleetReplicaHelper is the subprocess body for the chaos suite: a real
// bstcd-shaped replica (serve.Server over a loaded artifact, /v1/classify,
// /readyz) on a random port, killed with SIGKILL by the parent — there is
// no graceful path out of this function.
func TestFleetReplicaHelper(t *testing.T) {
	model := os.Getenv(chaosHelperEnv)
	if model == "" {
		t.Skip("helper: run only as a subprocess")
	}
	// The mapping lives until the parent kills this process.
	art, err := eval.LoadArtifactMapped(model)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(art.Artifact, serve.Config{BatchSize: 4, MaxWait: time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("fleet-replica: serving on http://%s\n", l.Addr())
	os.Stdout.Sync() //nolint:errcheck // banner must flush before the parent waits on it
	if err := http.Serve(l, srv.Handler()); err != nil {
		t.Fatal(err)
	}
}

// chaosArtifact trains the dataset every chaos replica serves and writes it
// to disk once; identical artifact → byte-identical classify responses
// across replicas, which the suite asserts.
func chaosArtifact(t *testing.T) (string, *eval.Artifact, [][]float64) {
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
	path := filepath.Join(t.TempDir(), "chaos-model.bstc")
	if err := eval.WriteArtifactFile(path, art, eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	return path, art, c.Values
}

// chaosReplica is one running subprocess replica.
type chaosReplica struct {
	cmd *exec.Cmd
	url string
}

// startChaosReplica re-execs the test binary as a replica serving model and
// waits for its address banner.
func startChaosReplica(t *testing.T, model string) *chaosReplica {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFleetReplicaHelper$", "-test.v")
	cmd.Env = append(os.Environ(), chaosHelperEnv+"="+model)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "serving on "); ok {
				select {
				case urlCh <- strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	select {
	case url := <-urlCh:
		r := &chaosReplica{cmd: cmd, url: url}
		t.Cleanup(func() { r.cmd.Process.Kill(); r.cmd.Wait() }) //nolint:errcheck // already dead is fine
		return r
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // teardown
		t.Fatal("chaos replica never printed its address")
		return nil
	}
}

// kill SIGKILLs the replica — no drain, no goodbye, mid-request.
func (r *chaosReplica) kill(t *testing.T) {
	t.Helper()
	if err := r.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	r.cmd.Wait() //nolint:errcheck // killed: non-zero exit expected
}

// TestFleetChaosKillRestart is the acceptance chaos suite: three real
// subprocess replicas behind a fleet client; one is SIGKILLed mid-load and
// later replaced by a fresh subprocess via SetReplicas. Every request while
// ≥1 replica is healthy must succeed (the retries/hedges absorb the kill),
// every answer must be byte-identical to the single-artifact reference, and
// the ejection/retry counters must show the machinery actually fired.
func TestFleetChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	model, art, rows := chaosArtifact(t)

	replicas := make([]*chaosReplica, 3)
	urls := make([]string, 3)
	for i := range replicas {
		replicas[i] = startChaosReplica(t, model)
		urls[i] = replicas[i].url
	}

	reg := obs.NewRegistry()
	c, err := New(Config{
		Replicas: urls,
		Seed:     7,
		Registry: reg,
		// Tight probe/breaker settings so ejection and recovery both happen
		// inside the test's load window.
		ProbeInterval:    100 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
		EjectThreshold:   1,
		AttemptTimeout:   5 * time.Second,
		HedgeDelay:       -1, // retries cover the kill; hedging has its own suites
		Retry:            RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
		RetryBudgetMax:   1000, // the kill window may need many retries; budget is not under test here
		RetryBudgetRatio: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)

	// Reference answers straight from the artifact — the ground truth every
	// replica must reproduce exactly.
	type ref struct {
		class int
		conf  float64
	}
	refs := make([]ref, len(rows))
	for i, row := range rows {
		cls, conf, err := art.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{cls, conf}
	}

	const total = 240
	killAt, restartAt := total/3, 2*total/3
	victim := 0

	var (
		mu         sync.Mutex
		bodies     = map[int]string{} // row index → first response body, byte-compared after
		failures   []string
		mismatches []string
	)
	classifyOne := func(i int) {
		row := i % len(rows)
		body, _ := json.Marshal(map[string][]float64{"values": rows[row]})
		res, err := c.Classify(context.Background(), []byte(fmt.Sprintf("chaos-%d", i)), body)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failures = append(failures, fmt.Sprintf("req %d: %v", i, err))
			return
		}
		if res.Status != http.StatusOK {
			failures = append(failures, fmt.Sprintf("req %d: status %d: %s", i, res.Status, res.Body))
			return
		}
		var got struct {
			ClassIndex int     `json:"class_index"`
			Confidence float64 `json:"confidence"`
		}
		if err := json.Unmarshal(res.Body, &got); err != nil {
			failures = append(failures, fmt.Sprintf("req %d: bad body %q", i, res.Body))
			return
		}
		if got.ClassIndex != refs[row].class || got.Confidence != refs[row].conf {
			mismatches = append(mismatches, fmt.Sprintf(
				"req %d (row %d) from %s: got (%d, %v), want (%d, %v)",
				i, row, res.Replica, got.ClassIndex, got.Confidence, refs[row].class, refs[row].conf))
			return
		}
		if prev, ok := bodies[row]; ok {
			if prev != string(res.Body) {
				mismatches = append(mismatches, fmt.Sprintf(
					"req %d (row %d) from %s: body %q differs from earlier answer %q",
					i, row, res.Replica, res.Body, prev))
			}
		} else {
			bodies[row] = string(res.Body)
		}
	}

	for i := 0; i < total; i++ {
		if i == killAt {
			replicas[victim].kill(t)
		}
		if i == restartAt {
			// The swap removes the dead member and adds the fresh one (a new
			// port, so a new ring identity). Consistent hashing bounds the
			// churn: a survivor-owned key either stays where it is or is
			// claimed by the joiner — it never moves between survivors
			// (the full remap bound is pinned by TestRingRemovalRemapBound).
			oldRing := c.Ring()
			fresh := startChaosReplica(t, model)
			deadURL := urls[victim]
			urls[victim] = fresh.url
			c.SetReplicas(urls)
			newRing := c.Ring()
			for k := 0; k < 200; k++ {
				key := []byte(fmt.Sprintf("stability-%d", k))
				before, after := oldRing.Lookup(key), newRing.Lookup(key)
				if before != deadURL && after != before && after != fresh.url {
					t.Errorf("key %q moved between survivors (%s→%s) during the swap", key, before, after)
				}
			}
			replicas[victim] = fresh
		}
		classifyOne(i)
	}

	if len(failures) != 0 {
		t.Fatalf("%d/%d requests failed with ≥1 healthy replica:\n%s",
			len(failures), total, strings.Join(failures, "\n"))
	}
	if len(mismatches) != 0 {
		t.Fatalf("answers diverged from the artifact reference:\n%s", strings.Join(mismatches, "\n"))
	}
	if got := reg.Counter("fleet.ok").Value(); got != total {
		t.Errorf("fleet.ok = %d, want %d", got, total)
	}
	if got := reg.Counter("fleet.retries").Value(); got == 0 {
		t.Error("fleet.retries = 0; the kill should have forced retries")
	}
	if got := reg.Counter("fleet.ejections").Value(); got == 0 {
		t.Error("fleet.ejections = 0; the dead replica was never ejected")
	}

	// The restarted replica rejoins: probes restore it and traffic lands on
	// it again for keys it owns.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sts := c.Statuses()
		routable := 0
		for _, s := range sts {
			if s.Routable {
				routable++
			}
		}
		if routable == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never returned to 3 routable replicas: %+v", sts)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, err := c.Classify(context.Background(), keyWithPrimary(t, c, urls[victim]), mustJSON(t, rows[0]))
	if err != nil {
		t.Fatalf("classify to restarted replica: %v", err)
	}
	if res.Replica != urls[victim] {
		t.Errorf("restarted replica %s not serving its keys (answered by %s)", urls[victim], res.Replica)
	}
}

func mustJSON(t *testing.T, row []float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string][]float64{"values": row})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
