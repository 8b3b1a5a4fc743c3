package serve

import (
	"encoding/json"
	"fmt"
	"math"
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

// decodeRequest parses and validates a classify request body. It is the
// fuzzed entry point of the serving layer: it must never panic and must
// reject anything the pipeline cannot classify deterministically.
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
