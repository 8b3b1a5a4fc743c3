package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/experiments"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/synth"
)

// studyLayers maps each study layer to the eval.RunCV phase that times its
// public function on every test, in the order one test enters them.
var studyLayers = []struct{ name, phase string }{
	{"eval.prepare", "discretize"},     // eval.PrepareWorkers
	{"core.train", "bstc/train"},       // core.Train
	{"core.classify", "bstc/classify"}, // Classifier.ClassifyBatchParallel
	{"rcbt.mine", "rcbt/topk"},         // rcbt.Mine
	{"rcbt.build", "rcbt/build"},       // rcbt.Build
	{"rcbt.classify", "rcbt/classify"}, // RCBT ClassifyBatch
}

// generate draws a profile's matrix and recalibrates it for seed.
func generate(p synth.Profile, seed int64) (*dataset.Continuous, error) {
	d, err := p.Generate()
	if err != nil {
		return nil, err
	}
	recalibrate(d, seed)
	return d, nil
}

// recalibrate applies a seeded positive gain and offset to every gene, as
// if each probe had been read on a differently calibrated array. Entropy-
// MDL discretization depends only on the order of each gene's values, so
// every seed is a different matrix with the same items, the same mining
// and classification work, and the same answers. Seeds that redrew the CV
// splits instead moved a study's wall-clock over 5.7–7.6 s (OC) and
// 8.0–11.6 s (PC) across six seeds; seeds that permuted the gene axis
// reordered PC's lower-bound search and spread its study time 14% (IQR
// over ten seeds, against 5% over five runs of one seed). Either would
// drown the changes the benchmark exists to judge.
func recalibrate(d *dataset.Continuous, seed int64) {
	r := rand.New(rand.NewSource(seed))
	gain := make([]float64, d.NumGenes())
	offset := make([]float64, d.NumGenes())
	for g := range gain {
		gain[g] = 0.5 + 1.5*r.Float64()
		offset[g] = 2*r.Float64() - 1
	}
	for _, row := range d.Values {
		for g, v := range row {
			row[g] = gain[g]*v + offset[g]
		}
	}
}

// studyData is a study's whole set-up: generating its matrix.
func studyData(st studySpec, seed int64) (*dataset.Continuous, []setupStep, error) {
	start := time.Now()
	d, err := generate(st.Profile, seed)
	if err != nil {
		return nil, nil, err
	}
	return d, []setupStep{{"synth.generate", time.Since(start)}}, nil
}

// cvConfig is bstcbench's study protocol — its study seed and RCBT
// parameters, Workers = GOMAXPROCS — with no cutoff.
func cvConfig(st studySpec, d *dataset.Continuous, workers int) eval.CVConfig {
	proto := experiments.Default(synth.Small)
	return eval.CVConfig{
		Data:    d,
		Sizes:   []eval.TrainSize{{Label: fmt.Sprintf("%g%%", 100*st.TrainFrac), Frac: st.TrainFrac}},
		Tests:   st.Tests,
		Seed:    proto.Seed,
		RunRCBT: true,
		RCBT:    proto.RCBT,
		Workers: workers,
		Dataset: st.Profile.Name,
	}
}

// study is one finished eval.RunCV study.
type study struct {
	res       []eval.SizeResult
	recs      []obs.RunRecord
	wall, cpu time.Duration
}

func runCV(ctx context.Context, cfg eval.CVConfig) (study, error) {
	var s study
	cfg.RunLog = obs.NewRunLog(io.Discard)
	cfg.RunLog.Observe(func(rec obs.RunRecord) { s.recs = append(s.recs, rec) })
	cpu0, start := cpuTime(), time.Now()
	res, err := eval.RunCV(ctx, cfg)
	s.wall, s.cpu = time.Since(start), cpuTime()-cpu0
	s.res = res
	if err != nil {
		return s, fmt.Errorf("eval.RunCV: %w", err)
	}
	if len(res) != 1 || len(s.recs) != cfg.Tests {
		return s, fmt.Errorf("eval.RunCV returned %d sizes and %d of %d test records", len(res), len(s.recs), cfg.Tests)
	}
	return s, nil
}

// countTests adds a study's tests to r: each is an attempted op, and one
// that errored, stopped early or left RCBT unfinished is a failed one. It
// returns how many failed.
func countTests(r *result, s study) (bad int) {
	for _, rec := range s.recs {
		r.Attempted++
		switch {
		case rec.Error != "":
			r.opFailed("test %d: %s", rec.Test, rec.Error)
		case rec.DNF || rec.TopkDNF || rec.RCBTDNF || rec.RCBTAccuracy == nil:
			r.opFailed("test %d: did not finish (%s)", rec.Test, rec.DNFReason)
		default:
			continue
		}
		bad++
	}
	return bad
}

// testMS is one test's latency: the time it held its worker, summed from
// RunCV's layer phases.
func testMS(rec obs.RunRecord) float64 {
	t := 0.0
	for _, l := range studyLayers {
		t += rec.PhasesMS[l.phase]
	}
	return t
}

// outcomes lists a study's per-test accuracies in test order.
func outcomes(res []eval.SizeResult) []testOutcome {
	sr := res[0]
	out := make([]testOutcome, len(sr.BSTC))
	for i := range sr.BSTC {
		out[i] = testOutcome{bstc: sr.BSTC[i].Accuracy, rcbt: sr.RCBT[i].Accuracy}
	}
	return out
}

func studyGolden(res []eval.SizeResult) golden {
	return golden{
		BSTCMeanAccuracy: mean(res[0].BSTCAccuracies()),
		RCBTMeanAccuracy: mean(res[0].RCBTFinishedAccuracies()),
	}
}

// runStudy runs one study workload. Untraced, it repeats set-up and study
// for the run's seconds (and until p50 has its samples) and reports per-test
// metrics from the medians; traced, it runs the study once untraced and
// once traced, and attributes the traced study's worker time to layers.
func runStudy(ctx context.Context, e *env, name string, st studySpec) (*result, error) {
	r := newResult(name, e)
	var reps []setupRep
	setup := func() (*dataset.Continuous, error) {
		return repeatSetup(e.spec, &reps, func(int) (*dataset.Continuous, []setupStep, error) {
			return studyData(st, e.seed)
		}, nil)
	}
	// bstcbench binds the pipeline's counters by default; so does the study.
	eval.SetMetrics(e.reg)
	defer eval.SetMetrics(nil)
	if e.traced {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		setSetup(r, reps)
		return r, tracedStudy(ctx, e, r, cvConfig(st, d, e.workers))
	}

	// Set-up is repeated before every study, so setup_s samples the host
	// across the run rather than in one stretch before it.
	var (
		studies                []study
		walls, cpus, latencies []float64
	)
	bad := 0
	start := time.Now()
	for {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		s, err := runCV(ctx, cvConfig(st, d, e.workers))
		if err != nil {
			return nil, err
		}
		bad += countTests(r, s)
		studies = append(studies, s)
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		for _, rec := range s.recs {
			latencies = append(latencies, testMS(rec))
		}
		// Stop once another study would more likely end past the run's
		// seconds than before them.
		if time.Since(start)+s.wall/2 >= e.seconds && len(latencies) >= 2*minBeyond {
			break
		}
	}
	setSetup(r, reps)
	r.set("ops_per_s", float64(st.Tests)/median(walls))
	r.set("cpu_ms_per_op", 1000*median(cpus)/float64(st.Tests))
	if p50, ok := latencyDetail(r, "test_latency", latencies); ok {
		r.set("p50_ms", p50)
	}
	r.set("study_s", median(walls))
	r.set("study_cpu_s", median(cpus))
	r.set("studies", float64(len(studies)))

	r.checkOps("every test finished without error or DNF", bad, r.Attempted)
	first := outcomes(studies[0].res)
	agree := true
	for _, s := range studies[1:] {
		agree = agree && equalOutcomes(first, outcomes(s.res))
	}
	r.check("repeated studies give identical accuracies", agree, "")
	return r, e.checkGolden(r, studyGolden(studies[0].res))
}

// tracedStudy runs the study through RunCV twice: untraced, for its exact
// counter deltas and as the baseline of trace.overhead_frac, then under the
// benchmark's root span, which exports RunCV's per-test spans. The traced
// study's per-test phase times attribute its worker time to layers, and its
// accuracies must equal the untraced study's.
func tracedStudy(ctx context.Context, e *env, r *result, cfg eval.CVConfig) error {
	before := e.reg.Snapshot()
	s, err := runCV(ctx, cfg)
	if err != nil {
		return err
	}
	counts := e.reg.Snapshot().DeltaFrom(before).Counters
	for _, c := range []string{"carminer.topk.nodes", "carminer.topk.groups", "carminer.lb.steps", "carminer.lb.bounds", "core.bstce.evals"} {
		r.set(c, float64(counts[c]))
	}

	rctx, root := e.tracer.StartRoot(ctx, "bstcperf/"+r.Workload, trace.SpanContext{})
	traced, err := runCV(rctx, cfg)
	root.SetError(err)
	root.End()
	if err != nil {
		return err
	}
	r.checkOps("every test finished without error or DNF", countTests(r, s)+countTests(r, traced), r.Attempted)
	r.check("traced study accuracies equal untraced RunCV", equalOutcomes(outcomes(traced.res), outcomes(s.res)), "")

	busy := map[string]float64{}
	total := 0.0
	for _, rec := range traced.recs {
		for _, l := range studyLayers {
			busy[l.name] += rec.PhasesMS[l.phase]
			total += rec.PhasesMS[l.phase]
		}
	}
	for _, l := range studyLayers {
		r.set(l.name+".share", ratio(busy[l.name], total))
		r.set(l.name+".busy_s", busy[l.name]/1000)
	}
	capacity := float64(cfg.Workers) * ms(traced.wall)
	r.set("eval.cv.idle_frac", ratio(capacity-total, capacity))
	r.set("eval.cv.idle_s", (capacity-total)/1000)
	r.set("study_s", s.wall.Seconds())
	r.set("traced_study_s", traced.wall.Seconds())
	r.set("trace.overhead_frac", ratio(float64(traced.wall-s.wall), float64(s.wall)))
	return e.checkGolden(r, studyGolden(s.res))
}

// testOutcome is one test's BSTC and RCBT accuracies.
type testOutcome struct {
	bstc, rcbt float64
}

func equalOutcomes(a, b []testOutcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forEach calls f for 0 … n−1 on at most workers goroutines, and returns
// the error of the lowest i whose call failed.
func forEach(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupStep is one timed step of a workload's set-up.
type setupStep struct {
	name string
	d    time.Duration
}

// setupRep is one timed repetition of a workload's set-up.
type setupRep struct {
	total time.Duration
	steps []setupStep
}

// maxSetupReps caps repeatSetup for set-ups of a few milliseconds.
const maxSetupReps = 200

// repeatSetup sets a workload up at least spec.SetupReps times and until
// spec.SetupFor has passed, tearing each repetition down before the next,
// appends every repetition's timing to reps and returns the last. It
// collects garbage first, so a study's leftovers are not charged to the
// set-up after it.
func repeatSetup[T any](spec Spec, reps *[]setupRep, build func(rep int) (T, []setupStep, error), teardown func(T)) (T, error) {
	var last T
	runtime.GC()
	start := time.Now()
	for i := 0; i < maxSetupReps && (i < spec.SetupReps || time.Since(start) < spec.SetupFor); i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		v, steps, err := build(i)
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		rep := setupRep{steps: steps}
		for _, s := range steps {
			rep.total += s.d
		}
		*reps = append(*reps, rep)
		last = v
	}
	return last, nil
}

// setSetup records setup_s, the median repetition's total, and each step's
// share of that repetition.
func setSetup(r *result, reps []setupRep) {
	sort.Slice(reps, func(i, j int) bool { return reps[i].total < reps[j].total })
	mid := reps[len(reps)/2]
	r.set("setup_s", mid.total.Seconds())
	shares := map[string]float64{}
	for _, s := range mid.steps {
		shares[s.name] += ratio(float64(s.d), float64(mid.total))
	}
	for step, share := range shares {
		r.set(step+".share", share)
	}
}
