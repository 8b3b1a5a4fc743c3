package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"bstc/internal/carminer"
	"bstc/internal/cba"
	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/stats"
	"bstc/internal/svm"
	"bstc/internal/synth"
	"bstc/internal/textplot"
)

// PreliminaryRow is one dataset's result across the §6.1 classifier
// families.
type PreliminaryRow struct {
	Name                                      string
	BSTC, CBA, Single, Bagging, Boosting, SVM float64
	MCBAR                                     float64
	JEP                                       float64
	JEPDNF                                    bool
}

// Preliminary reproduces the §6.1 preliminary comparison narrative: the
// paper reports BSTC matching RCBT's ~96% mean and beating CBA (87%), the
// Weka C4.5 family (single 74%, bagging 78%, boosting 74%) and SVM-light
// (93%) on the given training splits. This runner regenerates that
// comparison with this repository's own CBA, C4.5-family and SVM
// implementations, plus §4.2's rule-explicit MCBAR classifier.
func Preliminary(ctx context.Context, w io.Writer, cfg Config) ([]PreliminaryRow, error) {
	line(w, "Section 6.1 preliminary comparison (given training splits, scale=%s)", cfg.Scale)
	var out []PreliminaryRow
	var rows [][]string
	for pi, p := range synth.PaperProfiles(cfg.Scale) {
		data, err := p.Generate()
		if err != nil {
			return nil, err
		}
		counts, err := synth.GivenTrainingCounts(p.Name)
		if err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(cfg.Seed + int64(pi)))
		sp, err := dataset.FixedCountSplit(r, data.Classes, []int{counts[0], counts[1]})
		if err != nil {
			return nil, err
		}
		ps, err := eval.PrepareWorkers(ctx, data, sp, cfg.Workers)
		if err != nil {
			return nil, err
		}

		row := PreliminaryRow{Name: p.Name}
		b, err := eval.RunBSTCWorkers(ctx, ps, bstcOpts(), cfg.Workers)
		if err != nil {
			return nil, err
		}
		row.BSTC = b.Accuracy
		if row.CBA, err = eval.RunCBA(ps, cba.Config{MinSupport: 0.05, MinConfidence: 0.6}); err != nil {
			return nil, err
		}
		if row.Single, err = eval.RunTree(ps, eval.SingleTree, 0, cfg.Seed); err != nil {
			return nil, err
		}
		if row.Bagging, err = eval.RunTree(ps, eval.BaggedTrees, 25, cfg.Seed); err != nil {
			return nil, err
		}
		if row.Boosting, err = eval.RunTree(ps, eval.BoostedTrees, 25, cfg.Seed); err != nil {
			return nil, err
		}
		if row.SVM, err = eval.RunSVM(ps, svm.Config{Seed: cfg.Seed}); err != nil {
			return nil, err
		}
		if row.MCBAR, err = eval.RunMCBAR(ps, cfg.RCBT.K, bstcOpts()); err != nil {
			return nil, err
		}
		// JEP mining (the §7 TOP-RULES family) is exponential; a cutoff
		// turns blowups into a DNF cell.
		row.JEP, err = eval.RunJEP(ctx, ps, carminer.Budget{Deadline: obs.Now().Add(cfg.Cutoff)})
		if errors.Is(err, carminer.ErrBudgetExceeded) {
			row.JEPDNF = true
		} else if err != nil {
			return nil, err
		}
		out = append(out, row)
		jepCell := fmtPct(row.JEP)
		if row.JEPDNF {
			jepCell = "DNF"
		}
		rows = append(rows, []string{
			p.Name, fmtPct(row.BSTC), fmtPct(row.CBA),
			fmtPct(row.Single), fmtPct(row.Bagging), fmtPct(row.Boosting),
			fmtPct(row.SVM), fmtPct(row.MCBAR), jepCell,
		})
	}
	mean := func(get func(PreliminaryRow) float64) string {
		var vals []float64
		for _, r := range out {
			vals = append(vals, get(r))
		}
		return fmtPct(stats.Mean(vals))
	}
	var jepAcc []float64
	for _, r := range out {
		if !r.JEPDNF {
			jepAcc = append(jepAcc, r.JEP)
		}
	}
	jepAvg := "n/a"
	if len(jepAcc) > 0 {
		jepAvg = fmtPct(stats.Mean(jepAcc))
	}
	rows = append(rows, []string{
		"Average",
		mean(func(r PreliminaryRow) float64 { return r.BSTC }),
		mean(func(r PreliminaryRow) float64 { return r.CBA }),
		mean(func(r PreliminaryRow) float64 { return r.Single }),
		mean(func(r PreliminaryRow) float64 { return r.Bagging }),
		mean(func(r PreliminaryRow) float64 { return r.Boosting }),
		mean(func(r PreliminaryRow) float64 { return r.SVM }),
		mean(func(r PreliminaryRow) float64 { return r.MCBAR }),
		jepAvg,
	})
	textplot.Table(w, []string{
		"Dataset", "BSTC", "CBA", "C4.5 single", "bagging", "boosting", "SVM", "MCBAR (§4.2)", "JEP (§7)",
	}, rows)
	fmt.Fprintln(w, "MCBAR is the rule-explicit alternative of §4.2 that the paper forgoes (k-dependent);")
	fmt.Fprintln(w, "JEP is the §7 TOP-RULES family (exponential mining; DNF marks a cutoff).")
	return out, nil
}
