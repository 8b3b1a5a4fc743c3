// Package eval implements the BSTC paper's §6 experimental protocol: the
// discretization pipeline applied per training split, the cross-validation
// driver (25 tests × {40%, 60%, 80%, 1-x/0-y} training sizes), wall-clock
// timing with cutoffs, and the DNF bookkeeping of Tables 4 and 6.
package eval

import (
	"context"
	"fmt"

	"bstc/internal/dataset"
	"bstc/internal/discretize"
)

// Prepared is one training/test split pushed through the paper's pipeline:
// entropy-MDL discretization fitted on the training samples only, applied to
// both sides for the rule-based classifiers, plus the continuous values of
// the selected genes for SVM and random forest (§6.1: "the same genes
// selected by our entropy discretization except with their original
// undiscretized gene expression values").
type Prepared struct {
	TrainBool *dataset.Bool
	TestBool  *dataset.Bool
	TrainCont *dataset.Continuous
	TestCont  *dataset.Continuous
	// GenesAfterDiscretization is Table 3's count of genes the entropy
	// partition kept.
	GenesAfterDiscretization int
}

// PrepareWorkers discretizes per the protocol and materializes all four
// views, with the entropy-MDL fit striped over up to workers goroutines
// (at least one; see discretize.FitWithWorkers). The fitted model — and
// thus every returned view — is identical for any worker count. A context
// deadline or cancellation stops the fit with the typed fault errors.
func PrepareWorkers(ctx context.Context, c *dataset.Continuous, sp dataset.Split, workers int) (*Prepared, error) {
	if len(sp.Train) == 0 || len(sp.Test) == 0 {
		return nil, fmt.Errorf("eval: split needs both train (%d) and test (%d) samples",
			len(sp.Train), len(sp.Test))
	}
	trainC := c.Subset(sp.Train)
	testC := c.Subset(sp.Test)
	model, err := discretize.FitWithWorkers(ctx, trainC, discretize.EntropyMDL, workers)
	if err != nil {
		return nil, fmt.Errorf("eval: discretize: %w", err)
	}
	if model.NumSelectedGenes() == 0 {
		return nil, fmt.Errorf("eval: discretization selected no genes")
	}
	trainB, err := model.Transform(trainC)
	if err != nil {
		return nil, err
	}
	testB, err := model.Transform(testC)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		TrainBool:                trainB,
		TestBool:                 testB,
		TrainCont:                trainC.SelectGenes(model.Selected),
		TestCont:                 testC.SelectGenes(model.Selected),
		GenesAfterDiscretization: model.NumSelectedGenes(),
	}, nil
}
