package main

import (
	"flag"
	"fmt"
	"runtime"

	"bstc/internal/eval"
)

// cmdArtifact trains the full serving pipeline — entropy-MDL discretizer
// plus BSTC tables — on a continuous matrix and writes the combined
// artifact, the model file of `bstc classify -model` and `bstcd -model`.
//
//	bstc artifact -in expr.tsv -out model.bstc [-workers N]
//
// The file is the flat layout bstcd maps and serves zero-copy. It is
// written atomically (temp + fsync + rename), so a crash mid-write never
// leaves a torn artifact where a daemon would pick it up. Rerunning this
// command is also how a file in a retired format — a gob stream, or
// version 2 of the flat layout, which stored every exclusion list — is
// replaced.
func cmdArtifact(args []string) error {
	fs := flag.NewFlagSet("artifact", flag.ContinueOnError)
	in := fs.String("in", "", "continuous TSV or ARFF input (required)")
	out := fs.String("out", "", "artifact output path (required)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines for discretization (1 = serial; the artifact is identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("artifact: -in and -out are required")
	}
	cont, err := readContinuous(*in)
	if err != nil {
		return err
	}
	art, err := eval.TrainArtifact(cont, nil, *workers)
	if err != nil {
		return err
	}
	if err := eval.WriteArtifactFile(*out, art, eval.FormatV2); err != nil {
		return err
	}
	fmt.Printf("artifact: %d samples, %d/%d genes kept, %d items, %d classes; written to %s\n",
		cont.NumSamples(), art.Disc.NumSelectedGenes(), cont.NumGenes(),
		art.Disc.NumItems(), len(art.Classifier.ClassNames), *out)
	return nil
}
