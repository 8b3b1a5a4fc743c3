package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"maps"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"bstc/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the smoke spec's goldens in testdata/goldens.json")

// smokeSpec shrinks every workload to a fraction of a second: the toy
// profile stands in for both study profiles and small-scale OC for the
// paper-scale one, with one set-up and short phases.
var smokeSpec = Spec{
	Name:      "smoke",
	StudyOC:   studySpec{Profile: toyProfile(7), TrainFrac: 0.4, Tests: 20},
	StudyPC:   studySpec{Profile: toyProfile(7), TrainFrac: 0.6, Tests: 20},
	PaperOC:   serveSpec{Profile: mustProfile("OC", synth.Small), Rate: 200},
	ToyFleet:  serveSpec{Profile: toyProfile(1), Replicas: 2, Rate: 200},
	SetupReps: 1,
	Warmup:    100 * time.Millisecond,
}

// benchmarkFile is the part of BENCHMARK.json the command must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bm := readBenchmarkFile(t)
	ws := workloads(defaultSpec)
	if len(ws) != len(bm.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(ws), len(bm.Workloads))
	}
	for i, w := range ws {
		if w.name != bm.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, bm.Workloads[i].Name)
		}
	}
}

// TestSmoke runs every workload untraced and traced on the shrunken spec
// and checks the result line against BENCHMARK.json: exactly its metric
// names and units, no failed operation, and the goldens checked and
// passing.
func TestSmoke(t *testing.T) {
	bm := readBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bm.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	goldensOK := regexp.MustCompile(`check goldens\s+ok`)
	for _, mode := range []string{"0", "1"} {
		for _, w := range bm.Workloads {
			t.Run(w.Name+"/trace="+mode, func(t *testing.T) {
				args := []string{"-workload", w.Name, "-seed", "1", "-seconds", "0.6", "-trace", mode, "-workdir", t.TempDir()}
				if *update {
					args = append(args, "-update-goldens", "testdata/goldens.json")
				}
				var out bytes.Buffer
				ok, err := run(context.Background(), args, &out, io.Discard, smokeSpec)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !ok || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, out.String())
				}
				got := map[string]string{}
				for name, v := range line.Metrics {
					got[name] = v.Unit
				}
				if !maps.Equal(got, want[mode]) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want[mode])
				}
				if !*update && !goldensOK.MatchString(out.String()) {
					t.Errorf("goldens not checked or failing:\n%s", out.String())
				}
			})
		}
	}
}
