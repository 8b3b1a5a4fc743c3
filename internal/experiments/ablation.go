package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/stats"
	"bstc/internal/synth"
	"bstc/internal/textplot"
)

// AblationRow is one BSTC configuration's measurement.
type AblationRow struct {
	Label      string
	Accuracy   float64
	Confidence float64 // §8's normalized-difference confidence, averaged
	PerQuery   time.Duration
}

// Ablation measures the design choices DESIGN.md calls out, over a few
// random splits of the named profile:
//
//   - min vs product arithmetization of cell exclusion lists (§5.2 / §8);
//   - exclusion-list culling to cut per-query time (§8 future work);
//   - Mine-MCMCBAR's secondary tie ordering (§4.1), reported as mining time.
func Ablation(ctx context.Context, w io.Writer, cfg Config, profileName string) ([]AblationRow, error) {
	profile, err := synth.ProfileByName(profileName, cfg.Scale)
	if err != nil {
		return nil, err
	}
	data, err := profile.Generate()
	if err != nil {
		return nil, err
	}
	line(w, "Ablations on %s (scale=%s, %d splits)", profileName, cfg.Scale, cfg.Tests)

	variants := []struct {
		label string
		opts  core.EvalOptions
	}{
		{"min (paper)", core.EvalOptions{Arithmetization: core.MinCombine}},
		{"product", core.EvalOptions{Arithmetization: core.ProductCombine}},
		{"min, cull to 8 lists", core.EvalOptions{CullListsTo: 8}},
		{"min, cull to 2 lists", core.EvalOptions{CullListsTo: 2}},
	}
	const adaptiveLabel = "adaptive (min+product, §8)"
	accs := make([][]float64, len(variants)+1)
	confs := make([][]float64, len(variants)+1)
	perQuery := make([]time.Duration, len(variants)+1)
	queries := 0

	r := rand.New(rand.NewSource(cfg.Seed))
	for test := 0; test < cfg.Tests; test++ {
		sp, err := dataset.RandomFractionSplit(r, data.NumSamples(), 0.6)
		if err != nil {
			return nil, err
		}
		ps, err := eval.PrepareWorkers(ctx, data, sp, cfg.Workers)
		if err != nil {
			return nil, err
		}
		queries += ps.TestBool.NumSamples()
		for vi, v := range variants {
			opts := v.opts
			cl, err := core.Train(ps.TrainBool, &opts)
			if err != nil {
				return nil, err
			}
			preds := make([]int, ps.TestBool.NumSamples())
			var conf float64
			start := obs.Now()
			for i, row := range ps.TestBool.Rows {
				var c float64
				preds[i], c = cl.Decide(row)
				conf += c
			}
			perQuery[vi] += obs.Now().Sub(start)
			accs[vi] = append(accs[vi], stats.Accuracy(preds, ps.TestBool.Classes))
			confs[vi] = append(confs[vi], conf/float64(ps.TestBool.NumSamples()))
		}
		// §8's adaptive procedure selection over min + product.
		ad, err := core.TrainAdaptive(ps.TrainBool)
		if err != nil {
			return nil, err
		}
		ai := len(variants)
		start := obs.Now()
		preds := ad.ClassifyBatch(ps.TestBool)
		perQuery[ai] += obs.Now().Sub(start)
		accs[ai] = append(accs[ai], stats.Accuracy(preds, ps.TestBool.Classes))
		var conf float64
		for _, row := range ps.TestBool.Rows {
			decisions, sel := ad.Decide(row)
			conf += decisions[sel].Confidence
		}
		confs[ai] = append(confs[ai], conf/float64(ps.TestBool.NumSamples()))
	}
	variants = append(variants, struct {
		label string
		opts  core.EvalOptions
	}{adaptiveLabel, core.EvalOptions{}})

	var out []AblationRow
	var rows [][]string
	for vi, v := range variants {
		row := AblationRow{
			Label:      v.label,
			Accuracy:   stats.Mean(accs[vi]),
			Confidence: stats.Mean(confs[vi]),
			PerQuery:   perQuery[vi] / time.Duration(queries),
		}
		out = append(out, row)
		rows = append(rows, []string{
			v.label, fmtPct(row.Accuracy), fmt.Sprintf("%.3f", row.Confidence),
			fmt.Sprintf("%.3fms", float64(row.PerQuery.Microseconds())/1000),
		})
	}
	textplot.Table(w, []string{"BSTC variant", "accuracy", "mean confidence", "per-query"}, rows)

	// Mine-MCMCBAR tie-break ordering: mining time with and without the
	// §4.1 secondary ordering, on one split's class-0 BST.
	sp, err := dataset.RandomFractionSplit(r, data.NumSamples(), 0.6)
	if err != nil {
		return nil, err
	}
	ps, err := eval.PrepareWorkers(ctx, data, sp, cfg.Workers)
	if err != nil {
		return nil, err
	}
	bst, err := core.NewBST(ps.TrainBool, 0)
	if err != nil {
		return nil, err
	}
	for _, tie := range []bool{false, true} {
		_, mine := trace.StartLayer(ctx, eval.Metrics(), "ablation/mine_mcmcbar")
		mined := bst.MineMCMCBAR(cfg.RCBT.K, core.MineOptions{TieBreakFewerExcluded: tie})
		line(w, "Mine-MCMCBAR top-%d (tie-break fewer-excluded=%v): %d rules in %s",
			cfg.RCBT.K, tie, len(mined), fmtDuration(mine.End()))
	}

	// §4.2's rule-explicit MCBAR classifier: k sensitivity vs parameter-free
	// BSTC on the same split — the paper's stated reason for forgoing it.
	bstcOut, err := eval.RunBSTCWorkers(ctx, ps, bstcOpts(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	line(w, "k sensitivity of the §4.2 MCBAR classifier (BSTC, parameter-free: %s):", fmtPct(bstcOut.Accuracy))
	for _, k := range []int{1, 2, 5, 10} {
		acc, err := eval.RunMCBAR(ps, k, bstcOpts())
		if err != nil {
			return nil, err
		}
		line(w, "  k=%-3d MCBAR accuracy %s", k, fmtPct(acc))
	}
	return out, nil
}
