package obs

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestSeriesKeyCanonical(t *testing.T) {
	if got := SeriesKey("hits"); got != "hits" {
		t.Errorf("unlabeled SeriesKey = %q", got)
	}
	// Keys sort, so argument order does not matter.
	a := SeriesKey("hits", Label{"z", "1"}, Label{"a", "2"})
	b := SeriesKey("hits", Label{"a", "2"}, Label{"z", "1"})
	if a != b || a != `hits{a="2",z="1"}` {
		t.Errorf("SeriesKey order dependence: %q vs %q", a, b)
	}
	// Exposition escaping of backslash, quote, newline.
	esc := SeriesKey("m", Label{"k", "a\\b\"c\nd"})
	if esc != `m{k="a\\b\"c\nd"}` {
		t.Errorf("escaped SeriesKey = %q", esc)
	}
	fam, block := splitSeriesKey(a)
	if fam != "hits" || block != `a="2",z="1"` {
		t.Errorf("splitSeriesKey = %q, %q", fam, block)
	}
	fam, block = splitSeriesKey("plain")
	if fam != "plain" || block != "" {
		t.Errorf("splitSeriesKey(plain) = %q, %q", fam, block)
	}
}

func TestLabeledMetricsResolveToSameSeries(t *testing.T) {
	r := NewRegistry()
	c1 := r.CounterWith("req", Label{"code", "200"}, Label{"route", "/x"})
	c2 := r.CounterWith("req", Label{"route", "/x"}, Label{"code", "200"})
	if c1 != c2 {
		t.Error("same (name, labels) resolved to different counters")
	}
	c1.Add(3)
	if got := r.Snapshot().Counters[`req{code="200",route="/x"}`]; got != 3 {
		t.Errorf("snapshot value = %d, want 3", got)
	}
	var nilReg *Registry
	nilReg.CounterWith("x", Label{"a", "b"}).Add(1) // must not panic
	nilReg.GaugeWith("x").Set(1)
	nilReg.HistogramWith("x").Record(1)
}

// promLine matches a sample line of the 0.0.4 text exposition:
// name{labels} value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|NaN)$`)

// parseProm validates exposition structure line by line: every sample
// belongs to a family announced by a preceding # TYPE line, and names
// match the exposition grammar. Returns samples as name{labels} → value.
func parseProm(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	var curFam string
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			curFam = parts[2]
			types[curFam] = parts[3]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid sample line: %q", ln+1, line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if name != curFam && base != curFam {
			t.Fatalf("line %d: sample %q outside its TYPE block (current family %q)", ln+1, name, curFam)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			v = 0 // +Inf value never appears as a sample value here
		}
		samples[m[1]+m[2]] = v
	}
	return samples, types
}

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(7)
	r.CounterWith("serve.errors", Label{"code", "500"}).Add(2)
	r.Gauge("serve/inflight").Set(3)
	h := r.Histogram("latency.us")
	for _, v := range []int64{0, 1, 2, 5, 100, 1000} {
		h.Record(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples, types := parseProm(t, text)

	if samples["serve_requests_total"] != 7 {
		t.Errorf("serve_requests_total = %v", samples["serve_requests_total"])
	}
	if types["serve_requests_total"] != "counter" {
		t.Errorf("serve_requests_total type = %q", types["serve_requests_total"])
	}
	if samples[`serve_errors_total{code="500"}`] != 2 {
		t.Errorf("labeled counter missing: %v", samples)
	}
	if samples["serve_inflight"] != 3 || types["serve_inflight"] != "gauge" {
		t.Errorf("gauge = %v type %q", samples["serve_inflight"], types["serve_inflight"])
	}

	// Histogram: cumulative monotone buckets, +Inf equals _count, _sum exact.
	if types["latency_us"] != "histogram" {
		t.Fatalf("latency_us type = %q", types["latency_us"])
	}
	var prev float64 = -1
	var inf, count, sum float64
	for _, upper := range []string{"0", "1", "3", "7", "15", "31", "63", "127"} {
		v, ok := samples[`latency_us_bucket{le="`+upper+`"}`]
		if !ok {
			t.Fatalf("missing bucket le=%s in:\n%s", upper, text)
		}
		if v < prev {
			t.Errorf("bucket le=%s not cumulative: %v < %v", upper, v, prev)
		}
		prev = v
	}
	inf = samples[`latency_us_bucket{le="+Inf"}`]
	count = samples["latency_us_count"]
	sum = samples["latency_us_sum"]
	if inf != 6 || count != 6 {
		t.Errorf("+Inf bucket %v and _count %v, want 6", inf, count)
	}
	if sum != 1108 {
		t.Errorf("_sum = %v, want 1108", sum)
	}

	// Build info is always present, even for a nil registry.
	if _, ok := types["bstc_build_info"]; !ok {
		t.Error("bstc_build_info family missing")
	}
	b.Reset()
	if err := WritePrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bstc_build_info") {
		t.Error("nil registry exposition lacks build info")
	}
}

func TestPromNameSanitize(t *testing.T) {
	cases := map[string]string{
		"serve.batch/flush_us": "serve_batch_flush_us",
		"9lives":               "_9lives",
		"ok_name:x":            "ok_name:x",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWantsProm(t *testing.T) {
	q := httptest.NewRequest("GET", "/metrics?format=prom", nil)
	if !wantsProm(q) {
		t.Error("format=prom not detected")
	}
	scrape := httptest.NewRequest("GET", "/metrics", nil)
	scrape.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	if !wantsProm(scrape) {
		t.Error("Prometheus Accept header not detected")
	}
	jsonReq := httptest.NewRequest("GET", "/metrics", nil)
	jsonReq.Header.Set("Accept", "application/json")
	if wantsProm(jsonReq) {
		t.Error("JSON Accept header misrouted to prom")
	}
	if wantsProm(httptest.NewRequest("GET", "/metrics", nil)) {
		t.Error("bare request should default to JSON")
	}
}
