package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"testing/iotest"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/synth"
)

// TestClientBodiesTakeFastPath guards the point of the fused scan: the
// bodies this repository's clients build — json.Marshal of a Request
// (bstcperf, the tests) and of bstcload's map[string][]float64 — are
// canonical, including the numbers encoding/json writes in exponent form
// or with a sign, and scan to TransformRow's row.
func TestClientBodiesTakeFastPath(t *testing.T) {
	art := testArtifact(t)
	rows := [][]float64{
		{-1.5, 0, math.Copysign(0, -1)},
		{1e-07, 1e+21, -1e+21},
		{-1e-07, 7, 123456789.123456789},
		{math.SmallestNonzeroFloat64, -0.35, math.MaxFloat64},
	}
	rows = append(rows, testSamples()...)
	for _, row := range rows {
		want, err := art.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{Request{Values: row}, map[string][]float64{"values": row}} {
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			q := scanValues(art.Disc, body)
			if q == nil {
				t.Errorf("%T body %s falls back to decodeRequest", v, body)
			} else if !q.Equal(want) {
				t.Errorf("%T body %s: scan row %v, TransformRow %v", v, body, q.Indices(), want.Indices())
			}
		}
	}
}

// sinkRow keeps a measured bitset.New on the heap, as a returned row is.
var sinkRow *bitset.Set

// TestDecodeRowSteadyStateAllocs pins the fused scan at the query row's
// own allocations: grammar checks, parsing and binning allocate nothing.
func TestDecodeRowSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	art := testArtifact(t)
	body := []byte(valuesBody(t, []float64{1.2345678901234567, -7e-300, 0.95}))
	row := testing.AllocsPerRun(100, func() { sinkRow = bitset.New(art.Disc.NumItems()) })
	scan := testing.AllocsPerRun(100, func() {
		if scanValues(art.Disc, body) == nil {
			t.Fatal("canonical body fell back")
		}
	})
	if scan != row {
		t.Errorf("scanValues allocates %v per body, want the row's own %v", scan, row)
	}
}

// TestReadBody checks ReadBody against what it replaces,
// io.ReadAll(io.LimitReader(body, limit+1)), for every relation between a
// body and its declared Content-Length: exact, unknown (chunked), shorter
// and longer than declared, over the limit, and a read error.
func TestReadBody(t *testing.T) {
	const limit = 64
	fits := bytes.Repeat([]byte("7"), 40)
	over := bytes.Repeat([]byte("7"), 100)
	boom := errors.New("connection reset")
	cases := []struct {
		name   string
		body   func() io.Reader
		length int64
	}{
		{"declared", func() io.Reader { return bytes.NewReader(fits) }, 40},
		{"empty", func() io.Reader { return bytes.NewReader(nil) }, 0},
		{"chunked", func() io.Reader { return bytes.NewReader(fits) }, -1},
		{"shorter than declared", func() io.Reader { return bytes.NewReader(fits) }, 50},
		{"longer than declared", func() io.Reader { return bytes.NewReader(fits) }, 10},
		{"one byte reads", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(fits)) }, 40},
		{"at the limit", func() io.Reader { return bytes.NewReader(over[:limit]) }, limit},
		{"over the limit, declared", func() io.Reader { return bytes.NewReader(over) }, 100},
		{"over the limit, chunked", func() io.Reader { return bytes.NewReader(over) }, -1},
		{"read error", func() io.Reader { return io.MultiReader(bytes.NewReader(fits[:5]), iotest.ErrReader(boom)) }, 40},
	}
	for _, tc := range cases {
		want, wantErr := io.ReadAll(io.LimitReader(tc.body(), limit+1))
		r := &http.Request{Body: io.NopCloser(tc.body()), ContentLength: tc.length}
		got, err := ReadBody(r, limit)
		if !bytes.Equal(got, want) || !errors.Is(err, wantErr) {
			t.Errorf("%s: ReadBody = %q, %v; want %q, %v", tc.name, got, err, want, wantErr)
		}
	}
}

// decodeBench is BenchmarkDecodeRowOC's fixture, built on first use so
// that only a benchmark run trains OC at paper scale.
var decodeBench struct {
	once   sync.Once
	art    *eval.Artifact
	bodies [][]byte
	err    error
}

// ocBodies trains an artifact on a seeded 80% split of OC at paper scale
// (15,154 genes) and renders each held-out sample as the body a client
// sends, as the serve-paper-oc benchmark workload does.
func ocBodies(b *testing.B) (*eval.Artifact, [][]byte) {
	b.Helper()
	s := &decodeBench
	s.once.Do(func() {
		c, err := synth.PaperProfiles(synth.Paper)[3].Generate()
		if err != nil {
			s.err = err
			return
		}
		sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(1)), c.NumSamples(), 0.8)
		if err != nil {
			s.err = err
			return
		}
		if s.art, err = eval.TrainArtifact(c.Subset(sp.Train), nil, 2); err != nil {
			s.err = err
			return
		}
		for _, i := range sp.Test {
			body, err := json.Marshal(Request{Values: c.Values[i]})
			if err != nil {
				s.err = err
				return
			}
			s.bodies = append(s.bodies, body)
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.art, s.bodies
}

// BenchmarkDecodeRowOC measures the request path's body → query row step
// on held-out OC paper-scale bodies (~290 KB, 15,154 values, of which the
// discretizer keeps ~950 genes): the fused scan every canonical body takes.
func BenchmarkDecodeRowOC(b *testing.B) {
	art, bodies := ocBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scanValues(art.Disc, bodies[i%len(bodies)]) == nil {
			b.Fatal("canonical body fell back")
		}
	}
}
