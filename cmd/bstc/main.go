// Command bstc trains and applies the BSTC classifier from the command
// line, mines boolean association rules, and runs the discretization
// pipeline.
//
// Subcommands:
//
//	bstc discretize -in expr.tsv -out data.bool
//	    Fit the entropy-MDL partition on a continuous matrix (TSV, or ARFF
//	    when the file ends in .arff) and write the boolean item-list
//	    representation.
//
//	bstc classify -train train.bool (or -model model.bstc) -test test.bool [-explain N] [-min-sat F]
//	    Train BSTC on the training file, or load it from an artifact
//	    written by `bstc artifact`, and classify every test sample,
//	    printing predictions (and accuracy by class name when the test
//	    file carries labels). The test file must list the model's items in
//	    the model's order, as `bstc discretize` writes them from the same
//	    input. -explain N additionally prints the top N supporting cell
//	    rules per sample with satisfaction ≥ -min-sat.
//
//	bstc mine -train train.bool -class LABEL -k K [-per-sample]
//	    Mine the top-k (MC)²BARs of a class (Algorithm 3, or Algorithm 4
//	    with -per-sample) and print them with support and CAR confidence.
//
//	bstc table -train train.bool -class LABEL
//	    Render the class's Boolean Structure Table in the style of the
//	    paper's Figure 1.
//
//	bstc eval -in expr.tsv -folds 5 -classifiers bstc,svm,forest,cba
//	    K-fold cross validation on a continuous matrix (TSV, or ARFF when
//	    the file ends in .arff), discretizing each fold's training half.
//
//	bstc artifact -in expr.tsv -out model.bstc
//	    Train the full serving pipeline (discretizer + BSTC tables) on a
//	    continuous matrix and write the combined artifact, the one model
//	    file `classify -model`, `bstcd` and `bstcload` read.
//
// Global flags, accepted before the subcommand:
//
//	bstc -cpuprofile cpu.out -memprofile mem.out eval -in expr.tsv
//	    Profile the run (written when the subcommand finishes).
//
//	bstc -debug-addr localhost:6060 eval -in expr.tsv
//	    Serve /debug/pprof (heap?debug=1 carries the runtime memstats) and
//	    /metrics, /slo while running.
//
// File formats are documented in internal/dataset (TSV for continuous
// data, tab-separated item lists for boolean data, plus Weka ARFF).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"bstc"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bstc:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	// Global flags come before the subcommand; flag parsing stops at the
	// first non-flag argument, which is the subcommand name.
	fs := flag.NewFlagSet("bstc", flag.ContinueOnError)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof, /metrics and /slo on this address")
	showVersion := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.Get().String())
		return nil
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: bstc [-cpuprofile f] [-memprofile f] [-debug-addr a] [-version] <discretize|classify|mine|table|eval|artifact> [flags]")
	}
	if *debugAddr != "" {
		// The registry the pipeline's phase timers and miner counters write
		// to while the subcommand runs; /metrics serves it.
		reg := obs.NewRegistry()
		eval.SetMetrics(reg)
		defer eval.SetMetrics(nil)
		srv, err := obs.ServeDebug(*debugAddr, reg, obs.NewSLOSet(), nil)
		if err != nil {
			return err
		}
		defer srv.Close() //nolint:errcheck // best-effort teardown on exit
		fmt.Fprintf(os.Stderr, "bstc: debug endpoints on http://%s/debug/\n", srv.Addr())
	}
	prof := obs.Profiler{CPUPath: *cpuProfile, MemPath: *memProfile}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	switch args[0] {
	case "discretize":
		return cmdDiscretize(args[1:])
	case "classify":
		return cmdClassify(args[1:])
	case "mine":
		return cmdMine(args[1:])
	case "table":
		return cmdTable(args[1:])
	case "eval":
		return cmdEval(args[1:])
	case "artifact":
		return cmdArtifact(args[1:])
	}
	return fmt.Errorf("unknown subcommand %q (want discretize, classify, mine, table, eval or artifact)", args[0])
}

func readBool(path string) (*dataset.Bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadBool(f)
}

// readContinuous reads a continuous expression matrix: Weka ARFF when the
// file name ends in .arff, TSV otherwise.
func readContinuous(path string) (*dataset.Continuous, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".arff") {
		return dataset.ReadARFF(f)
	}
	return dataset.ReadContinuous(f)
}

func classIndex(d *dataset.Bool, label string) (int, error) {
	for i, n := range d.ClassNames {
		if n == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("class %q not in dataset (have %v)", label, d.ClassNames)
}

func cmdDiscretize(args []string) error {
	fs := flag.NewFlagSet("discretize", flag.ContinueOnError)
	in := fs.String("in", "", "continuous TSV or ARFF input (required)")
	out := fs.String("out", "", "boolean item-list output (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("discretize: -in and -out are required")
	}
	cont, err := readContinuous(*in)
	if err != nil {
		return err
	}
	model, err := discretize.Fit(cont)
	if err != nil {
		return err
	}
	boolData, err := model.Transform(cont)
	if err != nil {
		return err
	}
	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer of.Close()
	if err := dataset.WriteBool(of, boolData); err != nil {
		return err
	}
	fmt.Printf("discretized %d samples: %d/%d genes kept, %d boolean items\n",
		cont.NumSamples(), model.NumSelectedGenes(), cont.NumGenes(), model.NumItems())
	return of.Close()
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	trainPath := fs.String("train", "", "training item-list file (or use -model)")
	modelPath := fs.String("model", "", "artifact written by `bstc artifact` (or use -train)")
	testPath := fs.String("test", "", "test item-list file (required)")
	explain := fs.Int("explain", 0, "print up to N supporting cell rules per sample")
	minSat := fs.Float64("min-sat", 0.8, "minimum satisfaction level for explanations")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines for batch classification (1 = serial; predictions are identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*trainPath == "") == (*modelPath == "") || *testPath == "" {
		return fmt.Errorf("classify: -test and exactly one of -train/-model are required")
	}
	var cl *bstc.Classifier
	if *modelPath != "" {
		m, err := eval.LoadArtifactMapped(*modelPath)
		if err != nil {
			if errors.Is(err, eval.ErrCorruptArtifact) {
				err = fmt.Errorf("classify: %s is not a model written by `bstc artifact`: %w", *modelPath, err)
			}
			return err
		}
		defer m.Close()
		cl = m.Classifier
	} else {
		train, err := readBool(*trainPath)
		if err != nil {
			return err
		}
		if dups := train.DuplicateSamplePairs(); len(dups) > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d duplicate sample pairs across classes (Theorem 2 assumption violated)\n", len(dups))
		}
		if cl, err = bstc.Train(train, nil); err != nil {
			return err
		}
	}
	test, err := readBool(*testPath)
	if err != nil {
		return err
	}
	if err := sameItems(test.GeneNames, cl.GeneNames); err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	preds := cl.ClassifyBatchParallel(test, max(*workers, 1))
	correct, labeled := 0, 0
	for i, row := range test.Rows {
		pred := preds[i]
		name := fmt.Sprintf("s%d", i+1)
		if len(test.SampleNames) > 0 {
			name = test.SampleNames[i]
		}
		fmt.Printf("%s\t%s", name, cl.ClassNames[pred])
		if i < len(test.Classes) {
			labeled++
			// Each file numbers its classes in order of first appearance,
			// so labels compare by name; one the model lacks is a miss.
			if cl.ClassNames[pred] == test.ClassNames[test.Classes[i]] {
				correct++
			}
		}
		fmt.Println()
		if *explain > 0 {
			for _, e := range cl.Explain(row, pred, *minSat, *explain) {
				fmt.Printf("\tsat=%.3f via training sample %d: %s\n",
					e.Satisfaction, e.SampleIndex+1, bstc.RenderRule(e.Rule.Antecedent, cl.GeneNames))
			}
		}
	}
	if labeled > 0 {
		fmt.Printf("accuracy: %d/%d = %.2f%%\n", correct, labeled, 100*float64(correct)/float64(labeled))
	}
	return nil
}

// sameItems checks that a test file lists the model's items in the model's
// order. Rows are sets of item positions, so a file over other items, or
// over the same items in another order, would be classified silently wrong.
func sameItems(test, model []string) error {
	for i := range min(len(test), len(model)) {
		if test[i] != model[i] {
			return fmt.Errorf("test file item %d is %q, model item %d is %q", i+1, test[i], i+1, model[i])
		}
	}
	if len(test) != len(model) {
		return fmt.Errorf("test file has %d items, model has %d", len(test), len(model))
	}
	return nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	trainPath := fs.String("train", "", "training item-list file (required)")
	class := fs.String("class", "", "class label to mine rules for (required)")
	k := fs.Int("k", 10, "number of (MC)²BARs")
	perSample := fs.Bool("per-sample", false, "use Algorithm 4 (top-k per training sample)")
	tieBreak := fs.Bool("tie-break", false, "order same-support rules by fewer excluded samples (§4.1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trainPath == "" || *class == "" {
		return fmt.Errorf("mine: -train and -class are required")
	}
	train, err := readBool(*trainPath)
	if err != nil {
		return err
	}
	ci, err := classIndex(train, *class)
	if err != nil {
		return err
	}
	bst, err := bstc.NewBST(train, ci)
	if err != nil {
		return err
	}
	opts := bstc.MineOptions{TieBreakFewerExcluded: *tieBreak}
	var mined []bstc.MCBAR
	if *perSample {
		mined = bst.MineMCMCBARPerSample(*k, opts)
	} else {
		mined = bst.MineMCMCBAR(*k, opts)
	}
	for i, m := range mined {
		carConf := float64(m.Support.Count()) / float64(m.Support.Count()+m.Excluded.Count())
		fmt.Printf("#%d support=%d excluded=%d CAR-confidence=%.3f\n",
			i+1, m.Support.Count(), m.Excluded.Count(), carConf)
		fmt.Printf("   %s => %s\n", bstc.RenderRule(m.Rule.Antecedent, train.GeneNames), *class)
	}
	fmt.Printf("%d rules mined\n", len(mined))
	return nil
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ContinueOnError)
	trainPath := fs.String("train", "", "training item-list file (required)")
	class := fs.String("class", "", "class label (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trainPath == "" || *class == "" {
		return fmt.Errorf("table: -train and -class are required")
	}
	train, err := readBool(*trainPath)
	if err != nil {
		return err
	}
	ci, err := classIndex(train, *class)
	if err != nil {
		return err
	}
	bst, err := bstc.NewBST(train, ci)
	if err != nil {
		return err
	}
	fmt.Print(bst.Render(train.GeneNames, train.SampleNames))
	return nil
}
