package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"bstc/internal/cba"
	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/forest"
	"bstc/internal/stats"
	"bstc/internal/svm"
	"bstc/internal/textplot"
)

// cmdEval runs k-fold cross validation on a continuous expression matrix
// (TSV or ARFF by extension), discretizing each fold's training half with
// the entropy-MDL partition and reporting per-classifier accuracy.
//
//	bstc eval -in data.tsv -folds 5 -classifiers bstc,svm,forest,cba
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	in := fs.String("in", "", "continuous TSV or ARFF input (required)")
	folds := fs.Int("folds", 5, "number of cross-validation folds")
	seed := fs.Int64("seed", 1, "shuffle seed")
	classifiers := fs.String("classifiers", "bstc,svm,forest", "comma-separated: bstc, svm, forest, cba")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines for discretization and BSTC batch classification (1 = serial; results are identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("eval: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	var cont *dataset.Continuous
	if strings.HasSuffix(strings.ToLower(*in), ".arff") {
		cont, err = dataset.ReadARFF(f)
	} else {
		cont, err = dataset.ReadContinuous(f)
	}
	if err != nil {
		return err
	}
	fmt.Println(cont.Summary(*in))

	wanted := map[string]bool{}
	for _, c := range strings.Split(*classifiers, ",") {
		c = strings.TrimSpace(c)
		switch c {
		case "bstc", "svm", "forest", "cba":
			wanted[c] = true
		case "":
		default:
			return fmt.Errorf("eval: unknown classifier %q", c)
		}
	}
	if len(wanted) == 0 {
		return fmt.Errorf("eval: no classifiers selected")
	}

	r := rand.New(rand.NewSource(*seed))
	splits, err := dataset.KFoldSplits(r, cont.NumSamples(), *folds)
	if err != nil {
		return err
	}
	accs := map[string][]float64{}
	for fold, sp := range splits {
		ps, err := eval.PrepareWorkers(context.Background(), cont, sp, *workers)
		if err != nil {
			return fmt.Errorf("eval: fold %d: %w", fold, err)
		}
		if wanted["bstc"] {
			out, err := eval.RunBSTCWorkers(context.Background(), ps, nil, *workers)
			if err != nil {
				return err
			}
			accs["bstc"] = append(accs["bstc"], out.Accuracy)
		}
		if wanted["svm"] {
			acc, err := eval.RunSVM(ps, svm.Config{Seed: *seed})
			if err != nil {
				return err
			}
			accs["svm"] = append(accs["svm"], acc)
		}
		if wanted["forest"] {
			acc, err := eval.RunForest(ps, forest.Config{NumTrees: 100, Seed: *seed})
			if err != nil {
				return err
			}
			accs["forest"] = append(accs["forest"], acc)
		}
		if wanted["cba"] {
			acc, err := eval.RunCBA(ps, cba.Config{})
			if err != nil {
				return err
			}
			accs["cba"] = append(accs["cba"], acc)
		}
	}

	var rows [][]string
	for _, name := range []string{"bstc", "svm", "forest", "cba"} {
		vals := accs[name]
		if len(vals) == 0 {
			continue
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f%%", 100*stats.Mean(vals)),
			fmt.Sprintf("%.2f%%", 100*stats.Median(vals)),
			fmt.Sprintf("%.2f%%", 100*stats.StdDev(vals)),
		})
	}
	textplot.Table(os.Stdout, []string{
		"classifier",
		fmt.Sprintf("mean acc (%d-fold)", *folds),
		"median", "stddev",
	}, rows)
	return nil
}
