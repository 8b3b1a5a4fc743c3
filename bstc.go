// Package bstc is a Go implementation of Boolean Structure Table
// Classification (BSTC) from "Scalable Rule-Based Gene Expression Data
// Classification" (Iwen, Lang, Patel — ICDE 2008): a polynomial-time,
// parameter-free, multi-class, rule-based classifier for discretized
// microarray data, together with the full evaluation substrate of the
// paper (entropy-MDL discretization, Top-k covering rule groups + RCBT,
// CBA, SVM, decision-tree family and random-forest baselines, synthetic
// dataset profiles, and the experiment harness regenerating the paper's
// tables and figures).
//
// The quickest path from expression data to predictions:
//
//	model, _ := bstc.Discretize(train)                 // entropy-MDL partition
//	boolTrain, _ := model.Transform(train)             // boolean item matrix
//	cl, _ := bstc.Train(boolTrain, nil)                // one BST per class
//	class := cl.Classify(boolTrain.Rows[0])            // Algorithm 6
//	why := cl.Explain(boolTrain.Rows[0], class, .8, 0) // §5.3.2 rule evidence
//
// This package is a façade over the internal packages; the exported names
// alias the internal types so downstream code needs only this import.
package bstc

import (
	"bstc/internal/bitset"
	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/rules"
	"bstc/internal/synth"
)

// GeneSet is a set of gene (or boolean item) indices; dataset rows and
// query samples are GeneSets over the dataset's gene universe.
type GeneSet = bitset.Set

// NewGeneSet returns an empty gene set over a universe of n genes.
func NewGeneSet(n int) *GeneSet { return bitset.New(n) }

// GeneSetOf returns a gene set over [0, n) containing the given indices.
func GeneSetOf(n int, genes ...int) *GeneSet { return bitset.FromIndices(n, genes...) }

// Dataset is the discretized relational representation of the paper's §2:
// each sample is the set of boolean items (gene, expression interval) it
// expresses, plus a class label.
type Dataset = dataset.Bool

// ContinuousDataset is a raw expression matrix with class labels — the
// input to discretization and the representation SVM/random-forest
// baselines consume.
type ContinuousDataset = dataset.Continuous

// Split partitions samples into training and test indices.
type Split = dataset.Split

// DiscretizeModel holds fitted entropy-MDL cut points and the induced item
// vocabulary.
type DiscretizeModel = discretize.Model

// Discretize learns the paper's entropy-minimized partition (Fayyad-Irani
// MDL) from training data. Genes with no accepted cut are dropped.
func Discretize(train *ContinuousDataset) (*DiscretizeModel, error) {
	return discretize.Fit(train)
}

// Classifier is the BSTC classifier (Algorithm 6): one Boolean Structure
// Table per class evaluated with BSTCE (Algorithm 5).
type Classifier = core.Classifier

// EvalOptions tunes BSTCE: the arithmetization combining a cell's
// exclusion-list satisfaction fractions and the §8 list-culling knob. The
// zero value is the paper's configuration.
type EvalOptions = core.EvalOptions

// Arithmetization selects min (the paper's choice) or product combination.
type Arithmetization = core.Arithmetization

// Arithmetization values.
const (
	MinCombine     = core.MinCombine
	ProductCombine = core.ProductCombine
)

// Train builds a BSTC classifier from discretized training data in
// O(|S|²·|G|) time (§5.3.1); the tables keep O(|S|·|G| + |S|²) state. A nil
// opts uses the paper's defaults. BSTC is parameter-free and handles any
// number of classes.
func Train(d *Dataset, opts *EvalOptions) (*Classifier, error) {
	return core.Train(d, opts)
}

// Explanation is one atomic BST cell rule supporting a classification
// (§5.3.2).
type Explanation = core.Explanation

// BST is the Boolean Structure Table of one class (§3.1, Algorithm 1).
type BST = core.BST

// NewBST runs Algorithm 1 for one class of a discretized dataset, for
// callers that want the table itself (rule mining, rendering) rather than
// the classifier.
func NewBST(d *Dataset, class int) (*BST, error) { return core.NewBST(d, class) }

// MCBAR is a Maximally Complex Maximally Confident Boolean Association
// Rule (§4.1), the upper bound of its interesting boolean rule group.
type MCBAR = core.MCBAR

// MineOptions tunes Algorithm 3's tie ordering.
type MineOptions = core.MineOptions

// MCBARClassifier is §4.2's rule-explicit alternative classifier: top-k
// per-sample (MC)²BARs scored by quantized satisfaction. The paper forgoes
// it (it depends on the parameter k) in favour of BSTC; it is included for
// completeness and ablation.
type MCBARClassifier = core.MCBARClassifier

// TrainMCBAR mines per-sample covering (MC)²BARs for every class and
// assembles the §4.2 classifier.
func TrainMCBAR(d *Dataset, k int, opts *EvalOptions) (*MCBARClassifier, error) {
	return core.TrainMCBAR(d, k, opts)
}

// Adaptive is §8's proposed generalization: evaluate several BSTCE
// arithmetization procedures per query and keep the most confident one
// (normalized difference between the two highest satisfaction levels).
type Adaptive = core.Adaptive

// TrainAdaptive builds an adaptive BSTC over the given procedures (default:
// the paper's min arithmetization plus the product alternative). Training
// cost is a single BSTC build; procedures share the tables.
func TrainAdaptive(d *Dataset, procedures ...EvalOptions) (*Adaptive, error) {
	return core.TrainAdaptive(d, procedures...)
}

// Rule algebra re-exports: boolean association rule antecedents are
// rules.Expr trees over gene literals.
type (
	// Expr is a boolean expression over gene-expression literals.
	Expr = rules.Expr
	// BAR is a boolean association rule B ⇒ C_i (§2.1).
	BAR = rules.BAR
	// CAR is a conjunctive association rule (§2).
	CAR = rules.CAR
)

// RenderRule pretty-prints a rule antecedent with the dataset's gene names.
func RenderRule(e Expr, geneNames []string) string { return rules.Render(e, geneNames) }

// SyntheticProfile describes a synthetic microarray dataset; see
// PaperProfiles for the four profiles calibrated to the paper's Table 2.
type SyntheticProfile = synth.Profile

// PaperScale selects the size of the paper-calibrated profiles.
type PaperScale = synth.Scale

// Paper scales.
const (
	ScaleSmall  = synth.Small
	ScaleMedium = synth.Medium
	ScalePaper  = synth.Paper
)

// PaperProfiles returns the four Table 2 dataset profiles (ALL, LC, PC,
// OC) at the given scale.
func PaperProfiles(scale PaperScale) []SyntheticProfile { return synth.PaperProfiles(scale) }

// PaperTable1 returns the paper's running example dataset (Table 1): five
// samples, six genes, classes Cancer and Healthy.
func PaperTable1() *Dataset { return dataset.PaperTable1() }
