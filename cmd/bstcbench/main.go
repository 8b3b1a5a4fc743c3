// Command bstcbench regenerates the BSTC paper's evaluation artifacts
// (Tables 2-7, Figures 4-7, the §6.2.4 tuning narrative and the §8
// ablations) on the synthetic dataset profiles.
//
// Usage:
//
//	bstcbench -exp all                 # everything, small scale
//	bstcbench -exp table4 -scale small # one artifact
//	bstcbench -exp fig6 -tests 25 -cutoff 30s
//	bstcbench -exp table4 -runlog runs.jsonl   # per-test JSONL telemetry
//	bstcbench -exp all -quiet                  # summary lines only
//	bstcbench -exp table6 -cpuprofile cpu.out -memprofile mem.out
//	bstcbench -exp table4 -debug-addr localhost:6060  # /metrics, /slo, /tracez + pprof
//	bstcbench -exp fig6 -workers 1             # exact serial evaluation
//
// Experiments: table2, table3, prelim, fig4, fig5, fig6, fig7, table4,
// table5, table6, table7, tuning, ablation, related, all. Figures and
// their runtime and accuracy tables for the same dataset share one
// cross-validation study, so asking for "fig6 table4 table5" computes the
// PC study once.
//
// Every experiment finishes with a one-line summary carrying its wall time
// and instrumentation highlights (BST builds, miner nodes and prunes,
// lower-bound steps, and each study phase's busy time with its share of
// all six);
// -quiet suppresses the rendered artifacts and keeps only those lines.
// -runlog additionally writes one JSON object per cross-validation test —
// the schema is documented in EXPERIMENTS.md ("Run telemetry").
//
// Cross-validation tests run concurrently on a -workers pool (default
// GOMAXPROCS); the same knob stripes discretization and batch
// classification inside each test, while Top-k rule group mining stays
// serial within its test. Splits are pre-drawn from the study seed, so
// accuracy artifacts are byte-identical for any worker count; DNF cells
// report real elapsed time against the cutoff and so can flip near the
// boundary under CPU contention, as on any loaded machine. -workers 1
// restores the exact serial path with precise per-test counter
// attribution.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bstc/internal/eval"
	"bstc/internal/experiments"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bstcbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("bstcbench", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiments (table2,table3,prelim,fig4..fig7,table4..table7,tuning,ablation,related,all)")
	scaleFlag := fs.String("scale", "small", "dataset scale: small, medium or paper")
	testsFlag := fs.Int("tests", 0, "cross-validation tests per training size (0 = scale default)")
	cutoffFlag := fs.Duration("cutoff", 0, "per-phase mining cutoff (0 = scale default)")
	seedFlag := fs.Int64("seed", 0, "random seed (0 = default)")
	workersFlag := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent cross-validation tests, also striping discretization and batch classification (1 = serial; accuracies are identical for any value)")
	maxNodesFlag := fs.Int("max-nodes", 0, "deterministic per-class Top-k node budget, checked every 64 nodes (a run can visit up to 63 past it); exceeding it DNFs the test like a cutoff (0 = unlimited)")
	runlogFlag := fs.String("runlog", "", "write one JSONL record per cross-validation test to this file")
	timeoutFlag := fs.Duration("timeout", 0, "overall wall-clock deadline; expired cross-validation tests become DNF records instead of aborting (0 = none)")
	checkpointFlag := fs.String("checkpoint", "", "directory for cross-validation checkpoint journals; an interrupted study resumes from them with identical artifacts")
	quietFlag := fs.Bool("quiet", false, "suppress rendered artifacts, print only per-experiment summary lines")
	obsFlag := fs.Bool("obs", true, "instrument the pipeline (miner counters, phase histograms)")
	cpuProfileFlag := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfileFlag := fs.String("memprofile", "", "write a heap profile to this file on exit")
	debugAddrFlag := fs.String("debug-addr", "", "serve /metrics, /slo, /tracez and /debug/pprof on this address (e.g. localhost:6060)")
	traceFlag := fs.String("trace", "", "write sampled spans as JSONL to this file")
	traceSampleFlag := fs.Float64("trace-sample", -1, "fraction of experiment traces to sample in [0,1] (default 1 when -trace is set, else 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sampleRate := *traceSampleFlag
	if sampleRate < 0 {
		if *traceFlag != "" {
			sampleRate = 1
		} else {
			sampleRate = 0
		}
	}

	scale, err := synth.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	cfg := experiments.Default(scale)
	if *testsFlag > 0 {
		cfg.Tests = *testsFlag
	}
	if *cutoffFlag > 0 {
		cfg.Cutoff = *cutoffFlag
	}
	if *seedFlag != 0 {
		cfg.Seed = *seedFlag
	}
	cfg.Workers = *workersFlag
	cfg.Checkpoint = *checkpointFlag
	cfg.RCBT.MaxNodes = *maxNodesFlag

	// SIGINT/SIGTERM cancel the run context: in-flight studies wind down into
	// DNF records (checkpoints keep the finished prefix) instead of dying
	// mid-write. -timeout layers a deadline on top.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}

	wanted := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e == "all" {
			for _, all := range []string{
				"table2", "table3", "prelim", "fig4", "fig5", "fig6", "fig7",
				"table4", "table5", "table6", "table7", "tuning", "ablation", "related",
			} {
				wanted[all] = true
			}
			continue
		}
		wanted[e] = true
	}
	if len(wanted) == 0 {
		return fmt.Errorf("no experiments selected")
	}
	for e := range wanted {
		if !knownExperiment(e) {
			return fmt.Errorf("unknown experiment %q", e)
		}
	}

	var reg *obs.Registry
	if *obsFlag {
		reg = obs.NewRegistry()
	}
	eval.SetMetrics(reg)
	defer eval.SetMetrics(nil)

	// Tracing: each experiment gets a root span, and the per-test spans in
	// eval hang off it via the study context. The recorder feeds /tracez on
	// the debug server; -trace exports every sampled span as JSONL.
	var tracer *trace.Tracer
	traceRec := trace.NewRecorder(0)
	traceCfg := trace.Config{SampleRate: sampleRate, Recorder: traceRec}
	if *traceFlag != "" {
		exp, err := trace.OpenExporter(*traceFlag)
		if err != nil {
			return err
		}
		defer exp.Close()
		traceCfg.Exporter = exp
	}
	tracer = trace.New(traceCfg)

	// The cv_tests availability SLO taps the run-log stream: a good event
	// is a test that neither errored nor DNF'd. Without -runlog the records
	// still flow (to a discard sink) so the SLO always has data.
	cvSLO := obs.NewSLO(obs.SLOConfig{Name: "cv_tests", Target: 0.999})
	slos := obs.NewSLOSet()
	slos.Add(cvSLO)

	if *debugAddrFlag != "" {
		srv, err := obs.ServeDebug(*debugAddrFlag, reg, slos, traceRec.Handler())
		if err != nil {
			return err
		}
		defer srv.Close() //nolint:errcheck // best-effort teardown on exit
		fmt.Fprintf(os.Stderr, "bstcbench: debug endpoints on http://%s/debug/\n", srv.Addr())
	}
	prof := obs.Profiler{CPUPath: *cpuProfileFlag, MemPath: *memProfileFlag}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *runlogFlag != "" {
		rl, err := obs.OpenRunLog(*runlogFlag)
		if err != nil {
			return err
		}
		defer rl.Close()
		cfg.RunLog = rl
	} else {
		cfg.RunLog = obs.NewRunLog(io.Discard)
	}
	cfg.RunLog.Observe(func(rec obs.RunRecord) {
		if rec.Experiment == "cv" && !rec.Replayed {
			cvSLO.Record(rec.Error == "" && !rec.DNF)
		}
	})

	// Artifacts render to w; summary lines go to stdout regardless.
	var w io.Writer = os.Stdout
	if *quietFlag {
		w = io.Discard
	}
	fmt.Fprintf(w, "BSTC evaluation suite — scale=%s tests=%d cutoff=%v seed=%d\n\n",
		scale, cfg.Tests, cfg.Cutoff, cfg.Seed)

	// runExp snapshots counters around one experiment, roots its trace, and
	// prints its one-line summary. The traced context flows into the
	// experiment so every cross-validation test's span hangs off the root.
	runExp := func(label string, f func(context.Context) error) error {
		before := reg.Snapshot()
		start := time.Now()
		ectx, span := tracer.StartRoot(ctx, "exp/"+label, trace.SpanContext{})
		err := f(ectx)
		span.SetError(err)
		span.End()
		if err != nil {
			return err
		}
		summaryLine(os.Stdout, label, time.Since(start), reg.Snapshot().DeltaFrom(before))
		fmt.Fprintln(w)
		return nil
	}

	if wanted["table2"] {
		if err := runExp("table2", func(context.Context) error { return experiments.Table2(w, cfg) }); err != nil {
			return err
		}
	}
	if wanted["table3"] {
		err := runExp("table3", func(ectx context.Context) error {
			_, err := experiments.Table3(ectx, w, cfg)
			return err
		})
		if err != nil {
			return err
		}
	}
	if wanted["prelim"] {
		err := runExp("prelim", func(ectx context.Context) error {
			_, err := experiments.Preliminary(ectx, w, cfg)
			return err
		})
		if err != nil {
			return err
		}
	}

	// Cross-validation studies, shared between each dataset's figure and
	// tables.
	type studyPlan struct {
		figure        string
		runtimeTable  string
		accuracyTable string
	}
	plans := map[string]studyPlan{
		"ALL": {figure: "fig4"},
		"LC":  {figure: "fig5"},
		"PC":  {figure: "fig6", runtimeTable: "table4", accuracyTable: "table5"},
		"OC":  {figure: "fig7", runtimeTable: "table6", accuracyTable: "table7"},
	}
	for _, name := range []string{"ALL", "LC", "PC", "OC"} {
		plan := plans[name]
		needFig := wanted[plan.figure]
		needRT := plan.runtimeTable != "" && wanted[plan.runtimeTable]
		needAcc := plan.accuracyTable != "" && wanted[plan.accuracyTable]
		if !needFig && !needRT && !needAcc {
			continue
		}
		err := runExp(name+" study", func(ectx context.Context) error {
			study, err := experiments.RunStudy(ectx, cfg, name, true)
			if err != nil {
				return err
			}
			if needFig {
				study.RenderFigure(w, "Figure "+strings.TrimPrefix(plan.figure, "fig"))
				fmt.Fprintln(w)
			}
			cutoffNote := fmt.Sprintf("Cutoff time is %v, default nl value is %d; \"(+)\" marks nl lowered to %d.",
				cfg.Cutoff, cfg.RCBT.NL, cfg.NLFallback)
			if needRT {
				study.RenderRuntimeTable(w, "Table "+strings.TrimPrefix(plan.runtimeTable, "table"), cutoffNote)
				fmt.Fprintln(w)
			}
			if needAcc {
				study.RenderAccuracyTable(w, "Table "+strings.TrimPrefix(plan.accuracyTable, "table"))
				fmt.Fprintln(w)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	if wanted["tuning"] {
		if err := runExp("tuning", func(ectx context.Context) error { return experiments.Tuning(ectx, w, cfg) }); err != nil {
			return err
		}
	}
	if wanted["ablation"] {
		err := runExp("ablation", func(ectx context.Context) error {
			_, err := experiments.Ablation(ectx, w, cfg, "PC")
			return err
		})
		if err != nil {
			return err
		}
	}
	if wanted["related"] {
		if err := runExp("related", func(ectx context.Context) error { return experiments.Related(ectx, w, cfg) }); err != nil {
			return err
		}
	}
	sloLine(os.Stdout, cvSLO)
	return nil
}

// sloLine prints the cross-validation availability SLO after the run: the
// lifetime attainment and the shortest rolling window's burn rate. Silent
// when no cross-validation test ran.
func sloLine(w io.Writer, s *obs.SLO) {
	rep := s.Report()
	if rep.Lifetime.Total == 0 {
		return
	}
	line := fmt.Sprintf("[slo] %s target=%.3f good=%d/%d ratio=%.4f",
		rep.Name, rep.Target, rep.Lifetime.Good, rep.Lifetime.Total, rep.Lifetime.Ratio)
	if len(rep.Windows) > 0 {
		line += fmt.Sprintf(" burn_%s=%.2f", rep.Windows[0].Window, rep.Windows[0].BurnRate)
	}
	fmt.Fprintln(w, line)
}

// summaryLine prints one experiment's wall time with counter highlights:
// the Top-k search volume and prune counts, lower-bound mining effort,
// DNF-relevant deadline expiries, and the study phases' busy time.
// Counters absent from the delta (experiment didn't exercise them, or
// instrumentation is off) are simply omitted.
func summaryLine(w io.Writer, label string, elapsed time.Duration, delta obs.Snapshot) {
	fmt.Fprintf(w, "[%s] %v", label, elapsed.Round(time.Millisecond))
	c := delta.Flat()
	if n := c["core.bst.builds"]; n > 0 {
		fmt.Fprintf(w, " bst-builds=%d cells=%d", n, c["core.bst.cells"])
	}
	if n := c["carminer.topk.nodes"]; n > 0 {
		pruned := c["carminer.topk.pruned_support"] + c["carminer.topk.pruned_confidence"] +
			c["carminer.topk.floor_prunes"]
		fmt.Fprintf(w, " topk-nodes=%d pruned=%d groups=%d", n, pruned, c["carminer.topk.groups"])
		if skips := c["carminer.topk.floor_skips"]; skips > 0 {
			fmt.Fprintf(w, " floor-skips=%d", skips)
		}
	}
	if n := c["carminer.lb.steps"]; n > 0 {
		fmt.Fprintf(w, " lb-steps=%d bounds=%d", n, c["carminer.lb.bounds"])
	}
	if n := c["carminer.deadline.expired"]; n > 0 {
		fmt.Fprintf(w, " deadline-expired=%d", n)
	}
	phaseBusy(w, delta)
	fmt.Fprintln(w)
}

// studyPhases are the cross-validation phases whose busy time summary
// lines break down, in pipeline order.
var studyPhases = []string{"discretize", "bstc/train", "bstc/classify", "rcbt/topk", "rcbt/build", "rcbt/classify"}

// phaseBusy appends each study phase's busy time, summed over every test
// and worker from its phase.<name> histogram, with its share of the six
// phases' summed time. Silent when no phase ran or instrumentation is off.
func phaseBusy(w io.Writer, delta obs.Snapshot) {
	var total int64
	for _, p := range studyPhases {
		total += delta.Hists["phase."+p].Sum
	}
	if total <= 0 {
		return
	}
	fmt.Fprint(w, " busy:")
	for _, p := range studyPhases {
		if h, ok := delta.Hists["phase."+p]; ok {
			fmt.Fprintf(w, " %s=%.3fs(%.1f%%)", p, time.Duration(h.Sum).Seconds(), 100*float64(h.Sum)/float64(total))
		}
	}
}

func knownExperiment(e string) bool {
	switch e {
	case "table2", "table3", "table4", "table5", "table6", "table7",
		"fig4", "fig5", "fig6", "fig7", "tuning", "ablation", "prelim", "related":
		return true
	}
	return false
}
