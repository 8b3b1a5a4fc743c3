package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"bstc/internal/discretize"
)

// ulpModel is a 3-gene discretizer whose cuts sit one ULP apart, so a
// number parsed one ULP off lands in a different item: gene 0 is cut
// around 0.1 (not exact in binary), gene 1 is dropped, and gene 2 is cut
// around zero, where -0, underflow and the smallest subnormal meet.
func ulpModel(t testing.TB) *discretize.Model {
	t.Helper()
	tenth := 0.1
	tiny := math.SmallestNonzeroFloat64
	cuts := [][]float64{
		{math.Nextafter(tenth, 0), tenth, math.Nextafter(tenth, 1)},
		nil,
		{-tiny, 0, tiny},
	}
	names := []string{"a[0]", "a[1]", "a[2]", "a[3]", "c[0]", "c[1]", "c[2]", "c[3]"}
	m, err := discretize.NewModel(3, cuts, names, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzDecodeRequest checks the fused scan against decodeRequest, its
// reference, on two models: testArtifact's discretizer, which drops one of
// three genes, and ulpModel. Whenever scanValues accepts a body,
// decodeRequest must accept it too and TransformRow of its values must
// give the same row. The decoder must never panic, and anything it accepts
// must be stable: re-marshalling an accepted request and decoding again
// yields the same request.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"values":[1.5,7,0.3]}`))
	f.Add([]byte(`{"items":["sep[1]","wide[0]"]}`))
	f.Add([]byte(`{"values":[1],"items":["x"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"values":[1e308,-1e308,0]}`))
	f.Add([]byte(`{"values":[1e999]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(nil))
	// Accepted today: signed zero, upper-case exponent, underflow to 0,
	// trailing whitespace, a subnormal, ULP neighbours of the cuts, a
	// number just under the float64 range, and a key matched
	// case-insensitively.
	f.Add([]byte(`{"values":[-0,1E5,1e-400]}`))
	f.Add([]byte(`{"values":[1,2,3]} `))
	f.Add([]byte("{\"values\":[1,2,3]}\n"))
	f.Add([]byte(`{"values":[0.1,0,5e-324]}`))
	f.Add([]byte(`{"values":[0.09999999999999999,1,-5e-324]}`))
	f.Add([]byte(`{"values":[0.10000000000000002,0.1e309,-0.0]}`))
	f.Add([]byte(`{"Values":[1,2,3]}`))
	// Rejected today: overflow (on a dropped gene too), leading zero,
	// truncated fraction or exponent, bare fraction, lone minus, plus sign.
	f.Add([]byte(`{"values":[1,1e999,3]}`))
	f.Add([]byte(`{"values":[1,1.7976931348623159e308,3]}`))
	f.Add([]byte(`{"values":[01,2,3]}`))
	f.Add([]byte(`{"values":[1.,2,3]}`))
	f.Add([]byte(`{"values":[.5,2,3]}`))
	f.Add([]byte(`{"values":[-,2,3]}`))
	f.Add([]byte(`{"values":[+1,2,3]}`))
	f.Add([]byte(`{"values":[1e,2,3]}`))
	// A duplicated key, null, and one value short and long.
	f.Add([]byte(`{"values":[1,2,3],"values":[4,5,6]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"values":null}`))
	f.Add([]byte(`{"values":[1,2]}`))
	f.Add([]byte(`{"values":[1,2,3,4]}`))
	models := []*discretize.Model{testArtifact(f).Disc, ulpModel(f)}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, d := range models {
			q := scanValues(d, data)
			if q == nil {
				continue
			}
			req, err := decodeRequest(data)
			if err != nil {
				t.Fatalf("model %d: the scan accepts a body decodeRequest rejects (%v): %q", i, err, data)
			}
			want, err := d.TransformRow(req.Values)
			if err != nil {
				t.Fatalf("model %d: the scan accepts a body TransformRow rejects (%v): %q", i, err, data)
			}
			if !q.Equal(want) {
				t.Fatalf("model %d: scan row %v, decode row %v for %q", i, q.Indices(), want.Indices(), data)
			}
		}

		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		req2, err := decodeRequest(again)
		if err != nil {
			t.Fatalf("re-encoded accepted request rejected: %v (body %s)", err, again)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("request not stable across re-encode: %+v vs %+v", req, req2)
		}
	})
}
