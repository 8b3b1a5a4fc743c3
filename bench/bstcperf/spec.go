package main

import (
	"context"
	"time"

	"bstc/internal/synth"
)

// Spec sizes every workload. defaultSpec is what the command runs and what
// BENCHMARK.json describes; the smoke test substitutes a shrunken spec so
// the whole suite runs in seconds.
type Spec struct {
	// Name keys the goldens: answers are pinned per spec.
	Name     string
	StudyOC  studySpec
	StudyPC  studySpec
	PaperOC  serveSpec
	ToyFleet serveSpec
	// Each run sets its workload up at least SetupReps times and until
	// SetupFor has passed; setup_s is the median.
	SetupReps int
	SetupFor  time.Duration
	// Warmup is the discarded fixed-rate phase that opens every serving
	// run, out of the run's seconds.
	Warmup time.Duration
}

// studySpec is one cross-validation study: bstcbench's protocol (RCBT on,
// no cutoff, its study seed) on one profile and training size.
type studySpec struct {
	Profile   synth.Profile
	TrainFrac float64
	Tests     int
}

// serveSpec is one serving tier: a model trained on a seeded 80% split of
// Profile, answering the held-out rows.
type serveSpec struct {
	Profile synth.Profile
	// Replicas > 0 serves from that many replicas behind a fleet gateway;
	// 0 serves from one server with no gateway.
	Replicas int
	// Rate is the fixed-rate phase's mean arrival rate, requests per second.
	Rate float64
}

// defaultSeed is the command's default seed.
const defaultSeed = 1

// serveTrainFrac is the serving workloads' training share; the rest of the
// samples form the request pool. The split is drawn from serveSplitSeed,
// not the run's seed, so every seed serves the same rows from the same
// model structure.
const (
	serveTrainFrac = 0.8
	serveSplitSeed = 1
)

// A serving run splits its seconds after warm-up into cycles rounds, each a
// fixed-rate phase for openShare of the round and a closed-loop capacity
// phase for the rest. Co-tenants of a shared host slow this process for
// stretches of several seconds; spreading each phase over the whole run
// keeps one such stretch from deciding a metric, where one block per phase
// let it decide the whole phase.
const (
	cycles    = 4
	openShare = 0.6
)

// hedgeFloor is the fleet's fleet.Config.HedgeDelay: the gateway hedges a
// request to a second replica once it has waited the rolling p99 of recent
// requests, or this floor if that is longer. The fleet's 30 ms default is
// ten times serve-toy-fleet's p99 of a few milliseconds, so no request ever
// waited long enough to hedge; under this floor the rolling p99 decides,
// and about one request in a hundred hedges.
const hedgeFloor = 500 * time.Microsecond

// toyProfile is cmd/bstcload's 60-gene synthetic profile.
func toyProfile(seed int64) synth.Profile {
	return synth.Profile{
		Name:            "loadgen",
		NumGenes:        60,
		ClassNames:      []string{"tumor", "normal"},
		ClassSizes:      []int{40, 40},
		InformativeFrac: 0.3,
		Separation:      2.5,
		Dropout:         0.05,
		Seed:            seed,
	}
}

func mustProfile(name string, scale synth.Scale) synth.Profile {
	p, err := synth.ProfileByName(name, scale)
	if err != nil {
		panic(err) // the paper profile names are constants
	}
	return p
}

// defaultSpec sizes each workload so one untraced run fits BENCHMARK.json's
// run_seconds with its medians steady; README.md gives the reasons.
var defaultSpec = Spec{
	Name:      "default",
	StudyOC:   studySpec{Profile: mustProfile("OC", synth.Small), TrainFrac: 0.4, Tests: 20},
	StudyPC:   studySpec{Profile: mustProfile("PC", synth.Small), TrainFrac: 0.6, Tests: 15},
	PaperOC:   serveSpec{Profile: mustProfile("OC", synth.Paper), Rate: 8},
	ToyFleet:  serveSpec{Profile: toyProfile(1), Replicas: 2, Rate: 200},
	SetupReps: 3,
	SetupFor:  300 * time.Millisecond,
	Warmup:    time.Second,
}

// workload is one named benchmark input; BENCHMARK.json and README.md give
// the reason each exists.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*result, error)
}

// workloads lists the benchmark's workloads in the order -workload all
// runs them, which is BENCHMARK.json's order.
func workloads(spec Spec) []workload {
	study := func(name string, st studySpec) workload {
		return workload{name, func(ctx context.Context, e *env) (*result, error) {
			return runStudy(ctx, e, name, st)
		}}
	}
	serving := func(name string, sv serveSpec) workload {
		return workload{name, func(ctx context.Context, e *env) (*result, error) {
			return runServing(ctx, e, name, sv)
		}}
	}
	return []workload{
		study("study-oc", spec.StudyOC),
		study("study-pc", spec.StudyPC),
		serving("serve-paper-oc", spec.PaperOC),
		serving("serve-toy-fleet", spec.ToyFleet),
	}
}
