package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"bstc/internal/bitset"
	"bstc/internal/discretize"
)

// Request is the body of POST /v1/classify: one sample, either as the raw
// continuous expression vector (Values, one entry per original gene, run
// through the artifact's discretizer) or as the already-discretized item
// names (Items, as printed by the discretizer, e.g. "g12[1]").
type Request struct {
	Values []float64 `json:"values,omitempty"`
	Items  []string  `json:"items,omitempty"`
}

// maxRequestBody bounds how much of a request body the server reads; a
// paper-scale sample (15154 genes as decimal floats) fits comfortably.
const maxRequestBody = 4 << 20

// ReadBody reads r's body through a limit+1 byte window, so the caller can
// tell a body that fits (len ≤ limit) from an oversized one (answered 413).
// A declared Content-Length within the limit sizes the buffer up front: a
// paper-scale body is read into one allocation instead of growing through
// about ten doublings. A chunked body, or one shorter or longer than it
// declared, reads exactly the bytes it would without the hint.
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	body := io.LimitReader(r.Body, limit+1)
	n := r.ContentLength
	if n < 0 || n > limit {
		return io.ReadAll(body)
	}
	var buf bytes.Buffer
	// ReadFrom grows the buffer unless MinRead bytes are free before each
	// read, including the final one that returns EOF.
	buf.Grow(int(n) + bytes.MinRead)
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// decodeRequest parses and validates a classify request body. It is the
// general path and the reference for scanValues: the server runs it on
// every body the fused scan does not take, and the fuzz target checks the
// scan against it. It must never panic and must reject anything the
// pipeline cannot classify deterministically.
func decodeRequest(data []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	// validate leaves exactly one field non-empty; drop the other's empty
	// "[]" so a request decodes the same whether it was present or absent.
	if len(req.Values) == 0 {
		req.Values = nil
	} else {
		req.Items = nil
	}
	return &req, nil
}

func (r *Request) validate() error {
	if (len(r.Values) == 0) == (len(r.Items) == 0) {
		return fmt.Errorf("request needs exactly one of \"values\" or \"items\"")
	}
	for i, v := range r.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("values[%d] is non-finite (%v)", i, v)
		}
	}
	for i, it := range r.Items {
		if it == "" {
			return fmt.Errorf("items[%d] is empty", i)
		}
	}
	return nil
}

// valuesPrefix opens every body json.Marshal(Request{Values: row}) writes.
const valuesPrefix = `{"values":[`

// scanValues is decodeRequest and TransformRow fused into one pass for the
// canonical body, byte for byte what json.Marshal(Request{Values: row})
// writes: {"values":[n,n,…]} with one JSON number per gene of d and nothing
// else. Every number is checked against the JSON grammar, but only the
// selected genes' numbers are parsed, with the strconv.ParseFloat call
// encoding/json makes, and binned as the scan passes them. A dropped gene's
// number is parsed only when its magnitude could overflow float64, which
// encoding/json rejects. Any other body — whitespace, other keys or key
// order, items, a wrong value count, a bad number — returns nil, and the
// caller falls back to decodeRequest, so the accepted and rejected sets are
// decodeRequest's.
func scanValues(d *discretize.Model, body []byte) *bitset.Set {
	genes := d.NumGenes()
	if genes == 0 || len(body) < len(valuesPrefix) || string(body[:len(valuesPrefix)]) != valuesPrefix {
		return nil
	}
	q := bitset.New(d.NumItems())
	i := len(valuesPrefix)
	for g := 0; g < genes; g++ {
		end, big := scanNumber(body, i)
		if end < 0 {
			return nil
		}
		if k := d.Position(g); k >= 0 || big {
			v, err := strconv.ParseFloat(string(body[i:end]), 64)
			if err != nil {
				return nil
			}
			if k >= 0 {
				q.Add(d.Item(k, v))
			}
		}
		sep := byte(',')
		if g == genes-1 {
			sep = ']'
		}
		if end == len(body) || body[end] != sep {
			return nil
		}
		i = end + 1
	}
	if i != len(body)-1 || body[i] != '}' {
		return nil
	}
	return q
}

// scanNumber checks the JSON number starting at b[i] and returns the index
// just past it, or -1 when none starts there. big reports a magnitude that
// may reach 10^308, the only numbers the float64 range can reject: the
// number is below 10^(integer digits + exponent). The exponent saturates, so
// an absurd one still reads as big (positive) or tiny (negative).
func scanNumber(b []byte, i int) (end int, big bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1, false
	}
	mag := i - start
	if i < len(b) && b[i] == '.' {
		if i+1 == len(b) || !isDigit(b[i+1]) {
			return -1, false
		}
		i = skipDigits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1, false
		}
		exp := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if exp < 1<<20 {
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if neg {
			exp = -exp
		}
		mag += exp
	}
	return i, mag > 308
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Response is the body of a successful classification. ModelVersion names
// the artifact version that produced it (also sent as X-Model-Version), so
// clients can attribute every answer during a hot swap or canary rollout.
type Response struct {
	Class        string  `json:"class"`
	ClassIndex   int     `json:"class_index"`
	Confidence   float64 `json:"confidence"`
	ModelVersion string  `json:"model_version"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
