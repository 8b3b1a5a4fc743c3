package eval

import (
	"context"
	"errors"
	"fmt"

	"bstc/internal/bitset"
	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
)

// Artifact is the deployable unit the serving layer loads: the fitted
// entropy-MDL discretizer and the BSTC classifier trained on its output.
// Together they are the whole inference pipeline — continuous expression
// vector → boolean item row → class — so a daemon holding an Artifact needs
// no training data. SaveV2 writes it as one flat file and
// LoadArtifactMapped serves that file zero-copy, checking on the way in
// that the two halves belong together.
type Artifact struct {
	Disc       *discretize.Model
	Classifier *core.Classifier
}

// ErrCorruptArtifact wraps every load failure caused by the file itself —
// truncation, bit flips, foreign or retired formats, version or cross-check
// mismatches — so callers can distinguish a damaged file from an IO error
// with errors.Is. Corruption never panics.
var ErrCorruptArtifact = errors.New("eval: corrupt artifact")

// TrainArtifact runs the full training pipeline on a labeled continuous
// matrix: fit the entropy-MDL partition (striped over workers; the model is
// identical for any worker count), transform, and train BSTC. A nil opts
// uses the paper's defaults.
func TrainArtifact(c *dataset.Continuous, opts *core.EvalOptions, workers int) (*Artifact, error) {
	model, err := discretize.FitWithWorkers(context.Background(), c, discretize.EntropyMDL, workers)
	if err != nil {
		return nil, fmt.Errorf("eval: discretize: %w", err)
	}
	if model.NumSelectedGenes() == 0 {
		return nil, fmt.Errorf("eval: discretization selected no genes")
	}
	b, err := model.Transform(c)
	if err != nil {
		return nil, err
	}
	cl, err := core.Train(b, opts)
	if err != nil {
		return nil, err
	}
	return &Artifact{Disc: model, Classifier: cl}, nil
}

// validate cross-checks the two halves of the artifact.
func (a *Artifact) validate() error {
	if got, want := len(a.Classifier.GeneNames), a.Disc.NumItems(); got != want {
		return fmt.Errorf("eval: artifact classifier has %d items, discretizer produces %d", got, want)
	}
	for i, n := range a.Classifier.GeneNames {
		if n != a.Disc.ItemNames[i] {
			return fmt.Errorf("eval: artifact item %d is %q in the classifier but %q in the discretizer", i, n, a.Disc.ItemNames[i])
		}
	}
	if len(a.Classifier.ClassNames) == 0 || len(a.Classifier.Tables) != len(a.Classifier.ClassNames) {
		return fmt.Errorf("eval: artifact classifier has %d tables for %d classes",
			len(a.Classifier.Tables), len(a.Classifier.ClassNames))
	}
	return nil
}

// TransformRow discretizes one continuous sample into the classifier's item
// universe.
func (a *Artifact) TransformRow(values []float64) (*bitset.Set, error) {
	return a.Disc.TransformRow(values)
}

// ClassifyRow runs the full pipeline on one continuous sample and returns
// the predicted class index and the classifier's confidence heuristic.
func (a *Artifact) ClassifyRow(values []float64) (class int, confidence float64, err error) {
	q, err := a.TransformRow(values)
	if err != nil {
		return 0, 0, err
	}
	class, confidence = a.Classifier.Decide(q)
	return class, confidence, nil
}
