// Command bstcperf is the repository's benchmark: two cross-validation
// studies that stress opposite mining layers and two serving tiers that
// stress opposite request layers. Every run checks its answers; an
// untraced run reports the end-to-end metrics, and a separate traced run
// attributes the time to layers by spanning the benchmark's own calls into
// each layer's public functions. bench/README.md describes the workloads,
// the metrics and how to compare two commits.
//
// Usage, from the bench directory:
//
//	go run ./bstcperf -workload study-oc -seed 1 -seconds 25 -trace 0
//	go run ./bstcperf -workload all -json report.json
//	go run ./bstcperf -workload serve-paper-oc -runs 10
//
// bash bench/run.sh passes its arguments through from the repository root.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 60, "failed": 0,
//	 "metrics": {"p50_ms": {"value": 812.3, "unit": "ms"}, ...}}
//
// carrying BENCHMARK.json's end_to_end metrics (-trace 0) or its per_layer
// metrics (-trace 1). A run with a failed operation or check exits 1 after
// printing it.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bstc/internal/obs"
	"bstc/internal/obs/trace"
)

func main() {
	ok, err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr, defaultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bstcperf:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// env is what one workload run works with.
type env struct {
	spec    Spec
	seed    int64
	seconds time.Duration
	traced  bool
	workers int
	workdir string
	reg     *obs.Registry
	// tracer samples every trace the benchmark itself starts; nil on
	// untraced runs. serverTracer is handed to servers and gateways on every
	// run and samples only requests that arrive with a sampled traceparent.
	// Both export into spans.
	tracer       *trace.Tracer
	serverTracer *trace.Tracer
	spans        *bytes.Buffer
	// updateGoldens, when set, is the goldens file to rewrite instead of
	// checking against the compiled-in one.
	updateGoldens string
}

// run parses args, runs the selected workloads and prints their reports,
// ending with the result line. ok is false when any run failed an
// operation or a check.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, spec Spec) (ok bool, err error) {
	fs := flag.NewFlagSet("bstcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", defaultSeed, "seeds every input the workload generates")
	seconds := fs.Float64("seconds", 25, "measured seconds per run (BENCHMARK.json's run_seconds)")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	runs := fs.Int("runs", 1, "repeat the run this many times with seeds seed, seed+1, … and print each metric's median and spread")
	jsonPath := fs.String("json", "", "also write the full report, with run metadata, to this file")
	workdir := fs.String("workdir", ".bench_build/bstcperf", "directory for model files and span exports")
	update := fs.String("update-goldens", "", "rewrite this goldens file from the run instead of checking it")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 || *runs < 1 {
		return false, errors.New("-seconds and -runs must be positive")
	}
	var selected []workload
	for _, w := range workloads(spec) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return false, err
	}

	reg := obs.NewRegistry()
	statBefore := readCPUStat()
	var results []*result
	for _, w := range selected {
		var reps []*result
		for i := 0; i < *runs; i++ {
			e := &env{
				spec:          spec,
				seed:          *seed + int64(i),
				seconds:       time.Duration(*seconds * float64(time.Second)),
				traced:        *traceFlag == 1,
				workers:       runtime.GOMAXPROCS(0),
				workdir:       *workdir,
				reg:           reg,
				spans:         &bytes.Buffer{},
				updateGoldens: *update,
			}
			exp := trace.NewExporter(e.spans)
			e.serverTracer = trace.New(trace.Config{Exporter: exp})
			if e.traced {
				e.tracer = trace.New(trace.Config{SampleRate: 1, Exporter: exp})
			}
			before := readCPUStat()
			r, err := w.run(ctx, e)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			if steal := stealFrac(before, readCPUStat()); e.traced {
				r.Metrics["env.steal_frac"] = steal
			} else {
				r.Detail["env.steal_frac"] = steal
			}
			if e.traced {
				r.Spans = filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.seed))
				if err := os.WriteFile(r.Spans, e.spans.Bytes(), 0o644); err != nil {
					return false, err
				}
			}
			r.finish()
			printResult(stdout, r)
			reps = append(reps, r)
		}
		if *runs > 1 {
			results = append(results, summarize(stdout, reps))
		} else {
			results = append(results, reps[0])
		}
	}

	steal := stealFrac(statBefore, readCPUStat())
	fmt.Fprintf(stdout, "gomaxprocs=%d %s commit=%s steal=%.1f%%\n", runtime.GOMAXPROCS(0), runtime.Version(), commit(), 100*steal)
	if steal > stealWarn {
		fmt.Fprintf(stderr, "bstcperf: warning: %.0f%% of host CPU time was stolen during the run; wall-clock metrics are suspect\n", 100*steal)
	}
	if *jsonPath != "" {
		meta := runMeta{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Seed:       *seed,
			Seconds:    *seconds,
			Spec:       spec.Name,
			StealFrac:  steal,
		}
		if err := writeJSONReport(*jsonPath, meta, results); err != nil {
			return false, err
		}
	}
	line := lineFor(results)
	if err := printLine(stdout, line); err != nil {
		return false, err
	}
	return line.Correct, nil
}
