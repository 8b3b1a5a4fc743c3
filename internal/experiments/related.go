package experiments

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"strconv"

	"bstc/internal/carminer"
	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/ep"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/obs/trace"
	"bstc/internal/synth"
	"bstc/internal/textplot"
)

// Related demonstrates the §7 related-work claim: BSTs capture the
// information of all 100%-confident CARs in polynomial time, whereas
// TOP-RULES-style mining of those rules needs an emerging-pattern miner
// such as MBD-LLBORDER, which "generally isn't polynomial time". The
// runner times BST construction against minimal-JEP left-border mining on
// growing training fractions of the PC profile, with the configured
// cutoff turning blowups into DNFs.
func Related(ctx context.Context, w io.Writer, cfg Config) error {
	line(w, "Section 7 related work: BST construction vs MBD-LLBORDER JEP mining on PC (scale=%s, cutoff=%v)",
		cfg.Scale, cfg.Cutoff)
	profile, err := synth.ProfileByName("PC", cfg.Scale)
	if err != nil {
		return err
	}
	data, err := profile.Generate()
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	var rows [][]string
	for _, frac := range []float64{0.4, 0.6, 0.8} {
		sp, err := dataset.RandomFractionSplit(r, data.NumSamples(), frac)
		if err != nil {
			return err
		}
		ps, err := eval.PrepareWorkers(ctx, data, sp, cfg.Workers)
		if err != nil {
			return err
		}

		_, build := trace.StartLayer(ctx, eval.Metrics(), "related/bst_build")
		for ci := 0; ci < ps.TrainBool.NumClasses(); ci++ {
			if _, err := core.NewBST(ps.TrainBool, ci); err != nil {
				return err
			}
		}
		bstTime := build.End()

		_, mine := trace.StartLayer(ctx, eval.Metrics(), "related/jep_mine")
		deadline := obs.Now().Add(cfg.Cutoff)
		jepCell := ""
		patterns := 0
		for ci := 0; ci < ps.TrainBool.NumClasses(); ci++ {
			jeps, err := ep.MineJEPs(ctx, ps.TrainBool, ci, carminer.Budget{Deadline: deadline})
			if errors.Is(err, carminer.ErrBudgetExceeded) {
				jepCell = ">= " + fmtDuration(cfg.Cutoff) + " (DNF)"
				break
			}
			if err != nil {
				return err
			}
			patterns += len(jeps)
		}
		if jepDur := mine.End(); jepCell == "" {
			jepCell = fmtDuration(jepDur)
		}
		rows = append(rows, []string{
			sizeLabel(frac),
			fmtDuration(bstTime),
			jepCell,
			strconv.Itoa(patterns),
		})
	}
	textplot.Table(w, []string{"Training", "BST build (all classes)", "JEP left border", "# minimal JEPs"}, rows)
	line(w, "BSTs are polynomial to build; the minimal 100%%-confident CAR border is not.")
	return nil
}

func sizeLabel(frac float64) string { return strconv.Itoa(int(frac*100)) + "%" }
