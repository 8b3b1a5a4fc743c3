package core

import (
	"math/rand"
	"runtime"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/synth"
)

// benchClassifier trains a two-class BSTC on a fixed random dataset and
// returns it with a held-out query batch, the steady-state workload of the
// evaluation hot-path benchmarks.
func benchClassifier(b *testing.B) (*Classifier, *dataset.Bool) {
	b.Helper()
	r := rand.New(rand.NewSource(11))
	train := randomBoolDataset(r, 40, 60, 2)
	cl, err := Train(train, nil)
	if err != nil {
		b.Fatal(err)
	}
	test := &dataset.Bool{
		GeneNames:  train.GeneNames,
		ClassNames: train.ClassNames,
	}
	for i := 0; i < 64; i++ {
		test.Classes = append(test.Classes, i%2)
		test.Rows = append(test.Rows, randomRow(r, train.NumGenes()))
	}
	return cl, test
}

// BenchmarkNewBST times Algorithm 1 for class 0 of benchClassifier's
// training set. A table keeps its rows and derives one shape per pair, so a
// per-pair set coming back shows in allocs/op.
func BenchmarkNewBST(b *testing.B) {
	d := randomBoolDataset(rand.New(rand.NewSource(11)), 40, 60, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewBST(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	cl, test := benchClassifier(b)
	t := cl.Tables[0]
	q := test.Rows[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Evaluate(q, cl.Opts)
	}
}

func BenchmarkClassify(b *testing.B) {
	cl, test := benchClassifier(b)
	q := test.Rows[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.Classify(q)
	}
}

func BenchmarkClassifyBatchParallel(b *testing.B) {
	cl, test := benchClassifier(b)
	workers := runtime.GOMAXPROCS(0)
	// One untimed batch fills every table's scratch pool, so a short
	// -benchtime run measures the steady state rather than the pool filling.
	_ = cl.ClassifyBatchParallel(test, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.ClassifyBatchParallel(test, workers)
	}
}

// BenchmarkClassifyOCSmall classifies the 152 held-out rows of the OC small
// 40% split (RandomFractionSplit seed 1) at one worker, discretized as a CV
// test discretizes them (cut points fitted on the 101 training rows): the
// classify layer of a study-oc test, where a column sweep orders about 40
// outside samples rather than the paper scale's 116.
func BenchmarkClassifyOCSmall(b *testing.B) {
	p, err := synth.ProfileByName("OC", synth.Small)
	if err != nil {
		b.Fatal(err)
	}
	c, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(1)), c.NumSamples(), 0.4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := discretize.Fit(c.Subset(sp.Train))
	if err != nil {
		b.Fatal(err)
	}
	train, err := m.Transform(c.Subset(sp.Train))
	if err != nil {
		b.Fatal(err)
	}
	test, err := m.Transform(c.Subset(sp.Test))
	if err != nil {
		b.Fatal(err)
	}
	cl, err := Train(train, nil)
	if err != nil {
		b.Fatal(err)
	}
	_ = cl.ClassifyBatchParallel(test, 1) // fill the scratch pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.ClassifyBatchParallel(test, 1)
	}
}
