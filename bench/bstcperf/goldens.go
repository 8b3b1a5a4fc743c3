package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
)

//go:embed testdata/goldens.json
var goldensJSON []byte

// golden pins one workload's answers: a study's mean accuracies over its
// tests, or a serving tier's answer to every pooled row, in pool order.
// Seeds only recalibrate the matrix, so the answers hold for every seed.
type golden struct {
	BSTCMeanAccuracy float64  `json:"bstc_mean_accuracy,omitempty"`
	RCBTMeanAccuracy float64  `json:"rcbt_mean_accuracy,omitempty"`
	Answers          []answer `json:"answers,omitempty"`
}

// answer is one classification with its confidence pinned to the bit.
type answer struct {
	Class          int    `json:"class"`
	ConfidenceBits string `json:"confidence_bits"`
}

func newAnswer(class int, confidence float64) answer {
	return answer{Class: class, ConfidenceBits: fmt.Sprintf("%016x", math.Float64bits(confidence))}
}

// goldenFile maps spec name → workload → golden.
type goldenFile map[string]map[string]golden

// checkGolden compares got with the pinned golden of this spec and
// workload; with -update-goldens it rewrites the pin instead.
func (e *env) checkGolden(r *result, got golden) error {
	if e.updateGoldens != "" {
		return updateGolden(e.updateGoldens, e.spec.Name, r.Workload, got)
	}
	var all goldenFile
	if err := json.Unmarshal(goldensJSON, &all); err != nil {
		return fmt.Errorf("compiled-in goldens: %w", err)
	}
	want, ok := all[e.spec.Name][r.Workload]
	if !ok {
		r.check("goldens", false, "no golden pinned for "+e.spec.Name+"/"+r.Workload)
		return nil
	}
	r.check("goldens", goldenDiff(want, got) == "", goldenDiff(want, got))
	return nil
}

// goldenDiff describes the first difference between want and got, or ""
// when they are equal.
func goldenDiff(want, got golden) string {
	switch {
	case want.BSTCMeanAccuracy != got.BSTCMeanAccuracy || want.RCBTMeanAccuracy != got.RCBTMeanAccuracy:
		return fmt.Sprintf("mean accuracies BSTC %v RCBT %v, want %v %v",
			got.BSTCMeanAccuracy, got.RCBTMeanAccuracy, want.BSTCMeanAccuracy, want.RCBTMeanAccuracy)
	case len(want.Answers) != len(got.Answers):
		return fmt.Sprintf("%d answers, want %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if want.Answers[i] != got.Answers[i] {
			return fmt.Sprintf("row %d answered %+v, want %+v", i, got.Answers[i], want.Answers[i])
		}
	}
	return ""
}

// updateGolden merges one pin into the goldens file at path.
func updateGolden(path, spec, workload string, g golden) error {
	all := goldenFile{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if all[spec] == nil {
		all[spec] = map[string]golden{}
	}
	all[spec][workload] = g
	b, err = json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
