package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bstc/internal/version"
)

// metricDef names one reported metric and its unit; the tables below must
// match BENCHMARK.json exactly (the smoke test checks).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports on every workload. An
// "op" is one cross-validation test on a study workload and one classify
// request on a serving workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
}

// perLayer are the metrics a traced run reports on every workload; a layer
// a workload never enters reads 0. Shares are of the summed layer busy time
// (study layers), of the client's mean latency (request layers), or of
// setup_s (set-up steps). Counts are per study or per request.
var perLayer = []metricDef{
	{"eval.prepare.share", "frac"},
	{"core.train.share", "frac"},
	{"core.classify.share", "frac"},
	{"rcbt.mine.share", "frac"},
	{"rcbt.build.share", "frac"},
	{"rcbt.classify.share", "frac"},
	{"eval.cv.idle_frac", "frac"},
	{"carminer.topk.nodes", "count"},
	{"carminer.topk.groups", "count"},
	{"carminer.lb.steps", "count"},
	{"carminer.lb.bounds", "count"},
	{"core.bstce.evals", "count"},
	{"serve.decode.share", "frac"},
	{"discretize.transform.share", "frac"},
	{"core.bstce.share", "frac"},
	{"serve.classify.share", "frac"},
	{"serve.queue_wait.share", "frac"},
	{"serve.encode.share", "frac"},
	{"fleet.hop.share", "frac"},
	{"layers.unattributed_frac", "frac"},
	{"core.bstce.evals_per_req", "count"},
	{"serve.batch_size.mean", "count"},
	{"serve.shed", "count"},
	{"serve.deadline_exceeded", "count"},
	{"fleet.retries", "count"},
	{"fleet.hedges", "count"},
	{"fleet.hedge_wins", "count"},
	{"fleet.hedge_win_ratio", "frac"},
	{"synth.generate.share", "frac"},
	{"eval.train.share", "frac"},
	{"eval.write.share", "frac"},
	{"eval.load.share", "frac"},
	{"fleet.ready.share", "frac"},
	{"loadgen.late_frac", "frac"},
	{"env.steal_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run: the operations it attempted and lost, its
// correctness checks, and its metrics.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	// Failed counts failed operations — errors, non-200s, wrong answers —
	// plus one per failed check.
	Failed int `json:"failed"`
	// Errors keeps the first few failed operations' reasons.
	Errors  []string           `json:"errors,omitempty"`
	Checks  []check            `json:"checks"`
	Metrics map[string]float64 `json:"metrics"`
	// Detail holds numbers printed for people but not judged: absolute
	// layer times, guarded percentiles, sample counts.
	Detail map[string]float64 `json:"detail,omitempty"`
	// Spans is the span JSONL file a traced run wrote.
	Spans string `json:"spans,omitempty"`
}

func newResult(name string, e *env) *result {
	r := &result{
		Workload: name,
		Seed:     e.seed,
		Traced:   e.traced,
		Metrics:  map[string]float64{},
		Detail:   map[string]float64{},
	}
	if e.traced {
		for _, m := range perLayer {
			r.Metrics[m.name] = 0
		}
	}
	return r
}

// check records a correctness check; a failed one counts as a failed op.
func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
	if !ok {
		r.Failed++
	}
}

// maxErrors bounds how many failed operations a result describes.
const maxErrors = 10

// opFailed counts one failed operation and keeps its reason.
func (r *result) opFailed(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// checkOps records a check over operations already counted as failed one
// by one, so it adds no failure of its own.
func (r *result) checkOps(name string, bad, total int) {
	r.Checks = append(r.Checks, check{Name: name, OK: bad == 0, Detail: fmt.Sprintf("%d of %d failed", bad, total)})
}

// set records a value: as a metric when the run's mode reports that name,
// otherwise as detail.
func (r *result) set(name string, v float64) {
	for _, m := range r.defs() {
		if m.name == name {
			r.Metrics[name] = v
			return
		}
	}
	r.Detail[name] = v
}

func (r *result) correct() bool { return r.Failed == 0 }

// defs returns the metric table the run's mode reports.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// finish verifies that every metric of the run's mode is present and
// finite, failing a check otherwise.
func (r *result) finish() {
	var bad []string
	for _, m := range r.defs() {
		v, ok := r.Metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, m.name)
		}
	}
	r.check("every metric measured", len(bad) == 0, strings.Join(bad, ","))
}

// minBeyond is how many samples must lie above a percentile before it is
// reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples, and
// whether at least minBeyond samples lie beyond it; a percentile without
// that support is not reported.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// latencyDetail records a latency sample's count, mean and every guarded
// percentile under prefix, and returns the median (ok false when the
// sample is too small to support it).
func latencyDetail(r *result, prefix string, ms []float64) (float64, bool) {
	sort.Float64s(ms)
	r.Detail[prefix+".n"] = float64(len(ms))
	if len(ms) > 0 {
		r.Detail[prefix+".mean_ms"] = mean(ms)
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}} {
		if v, ok := percentile(ms, q.q); ok {
			r.Detail[prefix+"."+q.name+"_ms"] = v
		}
	}
	return percentile(ms, 0.5)
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), the rule BENCHMARK.json's spreads are
// judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the host's aggregate CPU jiffies from /proc/stat.
type cpuStat struct {
	steal, total uint64
	ok           bool
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	for i, field := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	s.ok = true
	return s
}

// stealFrac is the share of host CPU time stolen by the hypervisor since
// before; 0 when /proc/stat is unavailable.
func stealFrac(before, after cpuStat) float64 {
	if !before.ok || !after.ok || after.total <= before.total {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}

// stealWarn is the steal share above which wall-clock numbers are suspect.
const stealWarn = 0.10

// runMeta identifies a run for -json reports.
type runMeta struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Spec       string  `json:"spec"`
	StealFrac  float64 `json:"env_steal_frac"`
}

func commit() string {
	v := version.Get()
	if v.Revision == "" {
		return "unknown"
	}
	if v.Modified {
		return v.Revision + "+modified"
	}
	return v.Revision
}

// printResult writes one run's human-readable report.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: attempted=%d failed=%d\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	for _, m := range r.defs() {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, r.Metrics[m.name], m.unit)
	}
	names := make([]string, 0, len(r.Detail))
	for name := range r.Detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %14.6g\n", "("+name+")", r.Detail[name])
	}
	for _, msg := range r.Errors {
		fmt.Fprintf(w, "  failed: %s\n", msg)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-40s %s %s\n", c.Name, status, c.Detail)
	}
	if r.Spans != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.Spans)
	}
}

// jsonValue is one metric in the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// lineFor folds results into the result line. One result reports its
// metrics by name; several (-workload all) prefix each with its workload.
func lineFor(rs []*result) resultLine {
	l := resultLine{Correct: true, Metrics: map[string]jsonValue{}}
	for _, r := range rs {
		l.Correct = l.Correct && r.correct()
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		for _, m := range r.defs() {
			name := m.name
			if len(rs) > 1 {
				name = r.Workload + "." + name
			}
			v := r.Metrics[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // finish has already failed the run; JSON has no NaN
			}
			l.Metrics[name] = jsonValue{Value: v, Unit: m.unit}
		}
	}
	return l
}

// summarize folds K runs of one workload into one result carrying each
// metric's median, and prints every metric's quartiles and spreads.
func summarize(w io.Writer, runs []*result) *result {
	first := runs[0]
	sum := &result{
		Workload: first.Workload,
		Seed:     first.Seed,
		Traced:   first.Traced,
		Metrics:  map[string]float64{},
		Detail:   map[string]float64{},
	}
	fmt.Fprintf(w, "== %s: %d runs, seeds %d..%d\n", first.Workload, len(runs), first.Seed, runs[len(runs)-1].Seed)
	fmt.Fprintf(w, "  %-28s %12s %12s %12s %9s %9s\n", "metric", "q1", "median", "q3", "iqr/med", "range/med")
	for _, m := range first.defs() {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[m.name])
		}
		q1, q2, q3 := quartiles(vals)
		lo, hi := minMax(vals)
		fmt.Fprintf(w, "  %-28s %12.6g %12.6g %12.6g %9.4f %9.4f\n", m.name, q1, q2, q3, ratio(q3-q1, q2), ratio(hi-lo, q2))
		sum.Metrics[m.name] = q2
	}
	for _, r := range runs {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		sum.Checks = append(sum.Checks, r.Checks...)
	}
	return sum
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeJSONReport writes the -json document.
func writeJSONReport(path string, meta runMeta, rs []*result) error {
	b, err := json.MarshalIndent(struct {
		Meta    runMeta   `json:"meta"`
		Results []*result `json:"results"`
	}{meta, rs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printLine writes the result line as the last line of w.
func printLine(w io.Writer, l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
