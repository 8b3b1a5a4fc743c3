GO ?= go

# The hot-path benchmark set tracked in BENCH_hotpath.json (see
# EXPERIMENTS.md, "Hot-path benchmarks"). The regex is anchored, so it runs
# exactly the benchmarks it names.
HOTPATH_BENCH = ^(BenchmarkTopK|BenchmarkTopKOC|BenchmarkMineLowerBounds|BenchmarkNewBST|BenchmarkEvaluate|BenchmarkClassify|BenchmarkClassifyBatchParallel|BenchmarkClassifyOCSmall|BenchmarkIntersect|BenchmarkIntersectionCount|BenchmarkIntersectColumns|BenchmarkKey|BenchmarkIntersectInto|BenchmarkAppendKey|BenchmarkArtifactColdStartMapped|BenchmarkMappedClassifyRow|BenchmarkDecodeRowOC|BenchmarkFitOC)$$
HOTPATH_PKGS = ./internal/bitset/ ./internal/carminer/ ./internal/core/ ./internal/discretize/ ./internal/eval/ ./internal/serve/

# Every native fuzz target, as "package:Target" pairs for fuzz-smoke
# (go test allows only one -fuzz pattern per invocation).
FUZZ_TARGETS = \
	./internal/bitset:FuzzUnmarshalBinary \
	./internal/bitset:FuzzIntersectColumns \
	./internal/core:FuzzBSTCE \
	./internal/dataset:FuzzReadBool \
	./internal/dataset:FuzzReadContinuous \
	./internal/dataset:FuzzReadARFF \
	./internal/discretize:FuzzEntropyMDL \
	./internal/eval:FuzzLoadArtifact \
	./internal/registry:FuzzManifest \
	./internal/serve:FuzzDecodeRequest
FUZZTIME ?= 10s

# The chaos suite: every fault-injection, panic-containment, deadline,
# cancellation, checkpoint/corruption and fleet health test, run under the
# race detector.
# CHAOS_SEED picks the deterministic fault schedule for the seeded sweep
# (TestChaosSweep); CI runs a small seed matrix, and a failing seed
# reproduces locally with the same value.
CHAOS_TESTS = Chaos|Fault|Panic|Checkpoint|Deadline|Cancel|RetryAfter|Truncation|BitFlips|Corrupt|Resilience|Swap|Hedge|Eject|Probe|Close|Racing|NaturalBatching|FailOpen|ReadyzTracksFleet
CHAOS_PKGS = ./internal/fault/ ./internal/dataset/ ./internal/eval/ ./internal/serve/ ./internal/registry/ ./internal/fleet/
CHAOS_SEED ?= 1

.PHONY: check fmt vet lint build fma-check test bench-module race bench bench-json bench-smoke bench-gate fuzz-smoke chaos load-smoke load-report fleet-smoke

# The tier-1 gate plus every package under the race detector: the obs
# counters are hit concurrently by parallel batch classification, eval
# threads the registry through every miner (the fold pool runs one Top-k
# miner per concurrent test), the fold pool stripes discretization and
# classification across workers, the serving layer coalesces concurrent
# requests into batches, the fault injector is hit from every goroutine
# that reaches a site, and the -debug-addr handlers of bstcbench and bstc
# read the registry, SLO set and span recorder the fold pool writes.
# race runs ./... rather than a list, so a new package is raced by default.
# bench-smoke keeps the benchmark/benchjson pipeline compiling and parsing
# (one iteration per benchmark); fuzz-smoke gives every fuzz target a
# short budget on top of the committed corpora. bench-module vets and
# tests the repository benchmark (bench/, a module of its own that ./...
# does not reach): its smoke tests and serving goldens pin the served
# class and confidence bits.
check: fmt vet lint build race test bench-module bench-smoke fuzz-smoke fleet-smoke

# fmt fails when gofmt would change any Go file in the tree, bench/ included.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed (run gofmt -w on these):"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs staticcheck when it is on PATH (CI installs it; a bare dev box
# may not have it, and the target must not fail for that).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

# fma-check cross-compiles internal/discretize for arm64 and fails on any
# fused multiply-add in its assembly. The Go spec lets a compiler fuse
# x*y+z into one instruction with a single rounding; arm64 does and amd64
# does not, so an unrounded product would let entropies, gains and cut
# points differ in the last bit between the two. An explicit float64(x*y)
# keeps the product rounded. -a makes the compiler run, and so list the
# assembly, even when the package is cached.
fma-check:
	@out=$$(GOARCH=arm64 $(GO) build -a -gcflags='bstc/internal/discretize=-S' ./internal/discretize/ 2>&1) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'discretize\.EntropyMDL' || { echo "fma-check: no assembly listed"; exit 1; }; \
	n=$$(echo "$$out" | grep -cE 'F(N?M(ADD|SUB))[DS]'); \
	echo "fused multiply-adds in internal/discretize (arm64): $$n"; \
	[ "$$n" -eq 0 ]

race:
	$(GO) test -race ./...

test:
	$(GO) test ./...

bench-module:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-json refreshes BENCH_hotpath.json: the first run records the
# baseline, later runs keep it and update the current numbers. Each
# benchmark runs 5 times and benchjson records the median ns/op. Delete the
# file to re-baseline.
bench-json:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem -count 5 $(HOTPATH_PKGS) \
		| $(GO) run ./cmd/benchjson -o BENCH_hotpath.json

# bench-smoke runs every hot-path benchmark 20 times and gates against the
# committed BENCH_hotpath.json: a >25% allocs/op regression fails the build.
# Allocation counts are deterministic and hardware-independent, so this gate
# is safe on any CI runner; the ns/op side of the gate stays dormant here
# (20 iterations never reach -gate-min-iters) because wall-clock numbers
# from different machines aren't comparable. Use bench-gate for a full
# timed comparison on the machine that produced BENCH_hotpath.json.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchtime 20x -benchmem $(HOTPATH_PKGS) \
		| $(GO) run ./cmd/benchjson -gate 25 -gate-min-iters 1000 -baseline BENCH_hotpath.json -o /tmp/bench_smoke.json \
		&& rm -f /tmp/bench_smoke.json

# bench-gate is the full regression gate: default benchtime, both ns/op and
# allocs/op compared against the committed BENCH_hotpath.json at 25%. Run it
# on hardware comparable to what produced the committed numbers.
bench-gate:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem $(HOTPATH_PKGS) \
		| $(GO) run ./cmd/benchjson -gate 25 -baseline BENCH_hotpath.json -o /tmp/bench_gate.json \
		&& rm -f /tmp/bench_gate.json

chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -run '$(CHAOS_TESTS)' $(CHAOS_PKGS)

# load-smoke is the self-contained serving-tier check: bstcload trains a
# synthetic model, boots the serving tier, and drives a short seeded load
# run with a loose throughput gate (any working build clears 50 rps; the
# gate exists to catch a serving tier that stops answering). load-report
# refreshes the committed BENCH_serving.json with a longer run — numbers
# are machine-dependent, so refresh it on hardware comparable to the last.
load-smoke:
	$(GO) run ./cmd/bstcload -synth -requests 500 -concurrency 4 -seed 1 \
		-min-rps 50 -report /tmp/load_smoke.json && rm -f /tmp/load_smoke.json

load-report:
	$(GO) run ./cmd/bstcload -synth -requests 2000 -concurrency 8 -seed 42 \
		-report BENCH_serving.json

# fleet-smoke is the replica-set check: bstcload boots two in-process
# replicas behind the fleet gateway (routing, health probes, retries,
# hedging — the same engine as cmd/bstcgw) and drives seeded load through
# it. -max-failed 0 makes any dropped request fail the build.
fleet-smoke:
	$(GO) run ./cmd/bstcload -synth -fleet-replicas 2 -requests 500 \
		-concurrency 4 -seed 1 -min-rps 50 -max-failed 0 \
		-report /tmp/fleet_smoke.json && rm -f /tmp/fleet_smoke.json

# fuzz-smoke gives each target FUZZTIME of coverage-guided fuzzing (default
# 10s) seeded from the committed corpora in testdata/fuzz/. Any crasher is
# minimized and written there by the Go toolchain, turning it into a
# permanent regression test.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
	done
