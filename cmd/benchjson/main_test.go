package main

import (
	"strings"
	"testing"
)

func TestGateFailures(t *testing.T) {
	ref := map[string]Result{
		"BenchmarkTopK":  {Iterations: 5000, NsPerOp: 100000, AllocsPerOp: 800},
		"BenchmarkTiny":  {Iterations: 100000, NsPerOp: 50, AllocsPerOp: 0},
		"BenchmarkOther": {Iterations: 1000, NsPerOp: 1000, AllocsPerOp: 10},
	}
	// Each case's cur overrides (or, via drop, removes) entries of a run
	// that reproduced the reference exactly.
	cases := []struct {
		name string
		cur  map[string]Result
		drop []string
		want []string // substrings, one per expected failure
	}{
		{
			name: "within allowance",
			cur: map[string]Result{
				"BenchmarkTopK": {Iterations: 5000, NsPerOp: 120000, AllocsPerOp: 810},
			},
		},
		{
			name: "ns regression",
			cur: map[string]Result{
				"BenchmarkTopK": {Iterations: 5000, NsPerOp: 130000, AllocsPerOp: 800},
			},
			want: []string{"BenchmarkTopK: 130000 ns/op"},
		},
		{
			name: "ns regression ignored under min iters",
			cur: map[string]Result{
				"BenchmarkTopK": {Iterations: 1, NsPerOp: 900000, AllocsPerOp: 800},
			},
		},
		{
			name: "allocs regression gates even at one iteration",
			cur: map[string]Result{
				"BenchmarkTopK": {Iterations: 1, NsPerOp: 900000, AllocsPerOp: 1100},
			},
			want: []string{"BenchmarkTopK: 1100 allocs/op"},
		},
		{
			name: "zero-alloc baseline tolerates the absolute slack only",
			cur: map[string]Result{
				"BenchmarkTiny": {Iterations: 100000, NsPerOp: 50, AllocsPerOp: 2},
			},
		},
		{
			name: "zero-alloc baseline regression",
			cur: map[string]Result{
				"BenchmarkTiny": {Iterations: 100000, NsPerOp: 50, AllocsPerOp: 3},
			},
			want: []string{"BenchmarkTiny: 3 allocs/op"},
		},
		{
			name: "new benchmark is not gated",
			cur: map[string]Result{
				"BenchmarkBrandNew": {Iterations: 1, NsPerOp: 1e9, AllocsPerOp: 1 << 20},
			},
		},
		{
			name: "baseline benchmark missing from the run",
			drop: []string{"BenchmarkOther"},
			want: []string{"BenchmarkOther: in the baseline but missing"},
		},
		{
			name: "both dimensions fail, sorted by name",
			cur: map[string]Result{
				"BenchmarkOther": {Iterations: 1000, NsPerOp: 2000, AllocsPerOp: 100},
				"BenchmarkTopK":  {Iterations: 5000, NsPerOp: 130000, AllocsPerOp: 800},
			},
			want: []string{"BenchmarkOther: 2000 ns/op", "BenchmarkOther: 100 allocs/op", "BenchmarkTopK: 130000 ns/op"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := make(map[string]Result, len(ref)+len(tc.cur))
			for n, r := range ref {
				cur[n] = r
			}
			for n, r := range tc.cur {
				cur[n] = r
			}
			for _, n := range tc.drop {
				delete(cur, n)
			}
			got := gateFailures(cur, ref, 25, 10)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d failures %v, want %d", len(got), got, len(tc.want))
			}
			for i, sub := range tc.want {
				if !strings.Contains(got[i], sub) {
					t.Errorf("failure %d = %q, want substring %q", i, got[i], sub)
				}
			}
		})
	}
}

func TestBenchLineParsing(t *testing.T) {
	m := benchLine.FindStringSubmatch("BenchmarkSweep/w4-8   6692   176568 ns/op   72376 B/op   943 allocs/op")
	if m == nil {
		t.Fatal("sub-benchmark line did not parse")
	}
	if m[1] != "BenchmarkSweep/w4" {
		t.Errorf("name = %q, want GOMAXPROCS suffix stripped", m[1])
	}
}

// TestParseRunsRepeated: with -count N a benchmark's repeated lines reduce
// to the median ns/op, the largest B/op and allocs/op and the fewest
// iterations; a benchmark run once keeps its line as it is.
func TestParseRunsRepeated(t *testing.T) {
	out := `goos: linux
BenchmarkLB-2   	     300	   4000000 ns/op	     672 B/op	       3 allocs/op
BenchmarkLB-2   	     310	   3000000 ns/op	     700 B/op	       3 allocs/op
BenchmarkOnce-2 	    1000	      1234 ns/op	      16 B/op	       1 allocs/op
BenchmarkLB-2   	     250	   9000000 ns/op	     672 B/op	       5 allocs/op
BenchmarkEven-2 	      10	       100 ns/op
BenchmarkEven-2 	      20	       300 ns/op
PASS
`
	got, err := parseRuns(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"BenchmarkLB":   {Iterations: 250, NsPerOp: 4000000, BytesPerOp: 700, AllocsPerOp: 5},
		"BenchmarkOnce": {Iterations: 1000, NsPerOp: 1234, BytesPerOp: 16, AllocsPerOp: 1},
		"BenchmarkEven": {Iterations: 10, NsPerOp: 200},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks %v, want %d", len(got), got, len(want))
	}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("%s = %+v, want %+v", n, got[n], w)
		}
	}
}
