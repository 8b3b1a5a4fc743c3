package obs

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strings"

	"bstc/internal/version"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry's current state in the Prometheus
// text exposition format (version 0.0.4): counters as <name>_total,
// gauges as-is, histograms with cumulative power-of-two le-buckets plus
// _sum and _count, and a bstc_build_info gauge identifying the binary.
// Metric names are sanitized to the exposition grammar (dots and slashes
// become underscores); labeled series (CounterWith et al.) keep their
// label blocks. Output is deterministic: families and series are sorted.
// A nil registry writes only build info.
func WritePrometheus(w io.Writer, r *Registry) error {
	var counters map[string]int64
	var gauges map[string]int64
	hists := map[string]*Histogram{}
	if r != nil {
		r.mu.Lock()
		counters = make(map[string]int64, len(r.counters))
		for k, c := range r.counters {
			counters[k] = c.Value()
		}
		gauges = make(map[string]int64, len(r.gauges))
		for k, g := range r.gauges {
			gauges[k] = g.Value()
		}
		for k, h := range r.hists {
			hists[k] = h
		}
		r.mu.Unlock()
	}

	var b strings.Builder
	writeScalarFamilies(&b, counters, "counter", "_total")
	writeScalarFamilies(&b, gauges, "gauge", "")

	for _, fam := range sortedFamilies(histKeys(hists)) {
		name := promName(fam.name)
		fmt.Fprintf(&b, "# HELP %s bstc histogram %s (power-of-two buckets)\n", name, fam.name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		for _, s := range fam.series {
			writePromHistogram(&b, name, s.labels, hists[s.key])
		}
	}

	b.WriteString("# HELP bstc_build_info Build identity of the serving binary.\n")
	b.WriteString("# TYPE bstc_build_info gauge\n")
	// SeriesKey with an empty name renders exactly the {label,...} block.
	fmt.Fprintf(&b, "bstc_build_info%s 1\n", SeriesKey("", buildInfoLabels(version.Get())...))

	_, err := io.WriteString(w, b.String())
	return err
}

func buildInfoLabels(bi version.Info) []Label {
	labels := []Label{
		{Key: "version", Value: bi.Version},
		{Key: "goversion", Value: bi.GoVersion},
	}
	if bi.Revision != "" {
		labels = append(labels, Label{Key: "revision", Value: bi.Revision})
	}
	if bi.Modified {
		labels = append(labels, Label{Key: "modified", Value: "true"})
	}
	return labels
}

// series is one registry key split into family name and raw label block.
type promSeries struct {
	key    string
	labels string
}

type promFamily struct {
	name   string
	series []promSeries
}

func histKeys(m map[string]*Histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// sortedFamilies groups series keys by family, both levels sorted.
func sortedFamilies(keys []string) []promFamily {
	byName := map[string]*promFamily{}
	for _, key := range keys {
		name, labels := splitSeriesKey(key)
		f, ok := byName[name]
		if !ok {
			f = &promFamily{name: name}
			byName[name] = f
		}
		f.series = append(f.series, promSeries{key: key, labels: labels})
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]promFamily, 0, len(names))
	for _, n := range names {
		f := byName[n]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		out = append(out, *f)
	}
	return out
}

func writeScalarFamilies(b *strings.Builder, values map[string]int64, typ, suffix string) {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	for _, fam := range sortedFamilies(keys) {
		name := promName(fam.name) + suffix
		fmt.Fprintf(b, "# HELP %s bstc %s %s\n", name, typ, fam.name)
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
		for _, s := range fam.series {
			if s.labels == "" {
				fmt.Fprintf(b, "%s %d\n", name, values[s.key])
			} else {
				fmt.Fprintf(b, "%s{%s} %d\n", name, s.labels, values[s.key])
			}
		}
	}
}

// writePromHistogram renders one histogram series with cumulative
// le-buckets. Bucket i of the obs histogram holds values of bit length i,
// so its inclusive upper bound is 2^i - 1; buckets are emitted up to the
// observed maximum, then le="+Inf".
func writePromHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	counts := h.BucketCounts()
	count := h.Count()
	top := bits.Len64(uint64(h.Max()))
	var cum int64
	for i := 0; i <= top; i++ {
		cum += counts[i]
		upper := uint64(1)<<uint(i) - 1
		fmt.Fprintf(b, "%s_bucket{%sle=\"%d\"} %d\n", name, labelPrefix(labels), upper, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(labels), count)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %d\n", name, h.Sum())
		fmt.Fprintf(b, "%s_count %d\n", name, count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %d\n", name, labels, h.Sum())
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, count)
	}
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// promName sanitizes a registry name to the exposition grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*; dots and slashes (phase.serve/classify)
// become underscores.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// wantsProm reports whether a /metrics request asked for the Prometheus
// text format — ?format=prom, or an Accept header preferring text/plain
// (what a Prometheus scraper sends) over JSON.
func wantsProm(req *http.Request) bool {
	if req.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}
