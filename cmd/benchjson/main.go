// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON document tracking the hot-path benchmark numbers.
//
// Usage:
//
//	go test -run '^$' -bench 'TopK|Evaluate' -benchmem -count 5 ./... | benchjson -o BENCH_hotpath.json
//
// A benchmark run several times (-count N) is recorded as its median ns/op
// and its largest B/op and allocs/op over the repeats. The document has two
// sections: "benchmarks" holds the numbers from the current run, and
// "baseline" holds the numbers from the first run ever written to the
// output file. When the output file already exists its baseline is
// preserved verbatim (or, for files written before a baseline existed, its
// current numbers are promoted to baseline), so regenerating after an
// optimization records the before/after pair. Delete the file to reset the
// baseline. The schema is documented in EXPERIMENTS.md.
//
// With -gate PCT the command additionally compares the run against a
// committed reference (-baseline FILE, its "benchmarks" section) and exits
// non-zero when any benchmark present in both regresses by more than PCT
// percent in ns/op or allocs/op, or when a reference benchmark is missing
// from the run — the bench-smoke regression gate. ns/op is
// gated only when the run measured at least -gate-min-iters iterations
// (single-shot timings are noise); allocs/op always gates, with a small
// absolute slack absorbing warmup effects, since allocation counts are
// deterministic. The ns gate assumes the run and the reference came from
// comparable hardware.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Result is one benchmark's measurements.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the persisted BENCH_hotpath.json layout.
type File struct {
	// Baseline holds the first numbers ever recorded; later runs preserve it.
	Baseline map[string]Result `json:"baseline,omitempty"`
	// Benchmarks holds the numbers from the most recent run.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
// "BenchmarkTopK-8   100   11042 ns/op   5120 B/op   61 allocs/op".
// The -8 GOMAXPROCS suffix is stripped so keys are machine-independent.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "BENCH_hotpath.json", "output JSON file (also the baseline source)")
	gate := flag.Float64("gate", 0, "fail when a benchmark regresses more than this percent vs -baseline (0 = no gate)")
	gateBase := flag.String("baseline", "", "reference file for -gate (its \"benchmarks\" section); defaults to the -o file before this run updates it")
	gateMinIters := flag.Int64("gate-min-iters", 10, "gate ns/op only when the current run measured at least this many iterations")
	flag.Parse()

	got, err := parseRuns(os.Stdin)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (run with -bench and -benchmem)")
	}

	// The gate reference is read before -o is rewritten, so gating against
	// the same file compares to its committed contents.
	var ref map[string]Result
	if *gate > 0 {
		refPath := *gateBase
		if refPath == "" {
			refPath = *out
		}
		prev, err := os.ReadFile(refPath)
		if err != nil {
			return fmt.Errorf("gate baseline: %w", err)
		}
		var old File
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("gate baseline %s is not benchjson output: %w", refPath, err)
		}
		ref = old.Benchmarks
	}

	f := File{Benchmarks: got}
	if prev, err := os.ReadFile(*out); err == nil && len(prev) > 0 {
		var old File
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("existing %s is not benchjson output: %w", *out, err)
		}
		f.Baseline = old.Baseline
		if len(f.Baseline) == 0 {
			f.Baseline = old.Benchmarks
		}
	} else {
		// First run: the numbers being written become the baseline every
		// later run is compared against.
		f.Baseline = got
	}

	enc, err := marshalStable(f)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := got[n]
		line := fmt.Sprintf("%s: %.0f ns/op, %d B/op, %d allocs/op", n, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if base, ok := f.Baseline[n]; ok && base != r && base.AllocsPerOp > 0 {
			line += fmt.Sprintf(" (baseline %d allocs/op)", base.AllocsPerOp)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if *gate > 0 {
		if fails := gateFailures(got, ref, *gate, *gateMinIters); len(fails) > 0 {
			for _, msg := range fails {
				fmt.Fprintln(os.Stderr, "benchjson: GATE:", msg)
			}
			return fmt.Errorf("%d gate failure(s): regressed more than %.0f%% vs baseline, or missing", len(fails), *gate)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate ok (no regression beyond %.0f%% across %d tracked benchmarks)\n",
			*gate, len(ref))
	}
	return nil
}

// gateFailures compares cur against the reference and returns one message
// per benchmark breaching the pct regression allowance, and one per
// reference benchmark the run did not produce — a deleted or renamed
// benchmark must leave the gate by an edit to the reference, not silently.
// Benchmarks absent from the reference are recorded but not gated. ns/op
// is compared only
// when the current run measured at least minIters iterations — single-shot
// smoke timings are noise — while allocs/op, being deterministic, always
// compares, with an absolute slack of max(2, ref·pct/100) absorbing one-off
// warmup allocations.
func gateFailures(cur, ref map[string]Result, pct float64, minIters int64) []string {
	names := make([]string, 0, len(ref))
	for n := range ref {
		names = append(names, n)
	}
	sort.Strings(names)
	var fails []string
	for _, n := range names {
		b := ref[n]
		c, ok := cur[n]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: in the baseline but missing from this run", n))
			continue
		}
		if c.Iterations >= minIters && b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+pct/100) {
			fails = append(fails, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, allowance %.0f%%)",
				n, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), pct))
		}
		slack := int64(float64(b.AllocsPerOp) * pct / 100)
		if slack < 2 {
			slack = 2
		}
		if c.AllocsPerOp > b.AllocsPerOp+slack {
			fails = append(fails, fmt.Sprintf("%s: %d allocs/op vs baseline %d (allowance +%d)",
				n, c.AllocsPerOp, b.AllocsPerOp, slack))
		}
	}
	return fails
}

// parseRuns reads `go test -bench -benchmem` output and returns one result
// per benchmark. A benchmark run more than once (-count N) is reduced to
// the median ns/op (the mean of the middle two for an even count), the
// largest B/op and allocs/op, and the fewest iterations, so the ns/op gate
// applies only when every repeat ran its minimum iterations.
func parseRuns(in io.Reader) (map[string]Result, error) {
	runs := map[string][]Result{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := Result{Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		runs[m[1]] = append(runs[m[1]], r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	got := make(map[string]Result, len(runs))
	for name, rs := range runs {
		ns := make([]float64, len(rs))
		agg := rs[0]
		for i, r := range rs {
			ns[i] = r.NsPerOp
			agg.Iterations = min(agg.Iterations, r.Iterations)
			agg.BytesPerOp = max(agg.BytesPerOp, r.BytesPerOp)
			agg.AllocsPerOp = max(agg.AllocsPerOp, r.AllocsPerOp)
		}
		sort.Float64s(ns)
		agg.NsPerOp = (ns[(len(ns)-1)/2] + ns[len(ns)/2]) / 2
		got[name] = agg
	}
	return got, nil
}

// marshalStable renders the file with sorted keys and trailing newline so
// the committed artifact diffs cleanly. encoding/json already sorts map
// keys; this just sets the indentation style.
func marshalStable(f File) ([]byte, error) {
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}
