package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/version"
)

// writeTable1 writes the paper's running example to a temp item-list file.
func writeTable1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table1.bool")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteBool(f, dataset.PaperTable1()); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeContinuous(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cont.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7}, {1.2, 7}, {1.4, 7},
			{8.0, 7}, {8.2, 7}, {8.4, 7},
		},
	}
	if err := dataset.WriteContinuous(f, c); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"classify"},
		{"classify", "-train", "x"},
		{"mine", "-train", "x"},
		{"table", "-train", "x"},
		{"discretize"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
}

// TestRunVersionFlag: `bstc -version` prints build identity and exits clean,
// without requiring a subcommand.
func TestRunVersionFlag(t *testing.T) {
	out, err := runOutput(t, "-version")
	if err != nil {
		t.Fatalf("run(-version): %v", err)
	}
	if want := version.Get().String(); strings.TrimSpace(out) != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestClassifySelf(t *testing.T) {
	path := writeTable1(t)
	if err := run([]string{"classify", "-train", path, "-test", path, "-explain", "2"}); err != nil {
		t.Fatal(err)
	}
}

// runOutput runs the command and returns what it printed to stdout.
func runOutput(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		out <- b
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	return string(<-out), runErr
}

// writeItems writes an item-list file over the given items; each row is a
// class label followed by the items its sample expresses.
func writeItems(t *testing.T, name string, items []string, rows ...[]string) string {
	t.Helper()
	d := &dataset.Bool{GeneNames: items}
	classOf := map[string]int{}
	for _, row := range rows {
		c, ok := classOf[row[0]]
		if !ok {
			c = len(d.ClassNames)
			classOf[row[0]] = c
			d.ClassNames = append(d.ClassNames, row[0])
		}
		var genes []int
		for _, item := range row[1:] {
			genes = append(genes, slices.Index(items, item))
		}
		d.Classes = append(d.Classes, c)
		d.Rows = append(d.Rows, bitset.FromIndices(len(items), genes...))
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteBool(f, d); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestArtifactModelThenClassify: `bstc discretize` and `bstc artifact` fit
// the same model on one input, so classifying the discretized file with
// the artifact prints exactly what training on it does.
func TestArtifactModelThenClassify(t *testing.T) {
	in := writeContinuous(t)
	dir := t.TempDir()
	items, model := filepath.Join(dir, "cont.bool"), filepath.Join(dir, "cont.bstc")
	if err := run([]string{"discretize", "-in", in, "-out", items}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"artifact", "-in", in, "-out", model}); err != nil {
		t.Fatal(err)
	}
	got, err := runOutput(t, "classify", "-model", model, "-test", items, "-explain", "2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := runOutput(t, "classify", "-train", items, "-test", items, "-explain", "2")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("classify -model printed\n%s\nclassify -train printed\n%s", got, want)
	}
	if !strings.Contains(got, "accuracy: 6/6") {
		t.Errorf("classify -model output lacks accuracy 6/6:\n%s", got)
	}
	// -train and -model are mutually exclusive; neither is also an error.
	if err := run([]string{"classify", "-model", model, "-train", items, "-test", items}); err == nil {
		t.Error("both -train and -model should error")
	}
	if err := run([]string{"classify", "-test", items}); err == nil {
		t.Error("neither -train nor -model should error")
	}
	if err := run([]string{"train", "-train", items, "-out", filepath.Join(dir, "m")}); err == nil ||
		!strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("train = %v, want an unknown subcommand error", err)
	}
}

// TestClassifyRefusesGobModel: a model file written by the retired `bstc
// train` (a gob classifier stream, committed under testdata) is refused
// with a pointer to `bstc artifact`.
func TestClassifyRefusesGobModel(t *testing.T) {
	items := filepath.Join(t.TempDir(), "cont.bool")
	if err := run([]string{"discretize", "-in", writeContinuous(t), "-out", items}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"classify", "-model", filepath.Join("testdata", "gob-classifier.model"), "-test", items})
	if !errors.Is(err, eval.ErrCorruptArtifact) || !strings.Contains(err.Error(), "bstc artifact") {
		t.Fatalf("classify -model on a gob model = %v, want a corrupt-artifact error naming `bstc artifact`", err)
	}
}

// TestClassifyItemsMustMatch: a test file must list the model's items in
// the model's order, for -train and -model alike; the error names the
// first position that differs.
func TestClassifyItemsMustMatch(t *testing.T) {
	in := writeContinuous(t)
	dir := t.TempDir()
	items, model := filepath.Join(dir, "cont.bool"), filepath.Join(dir, "cont.bstc")
	if err := run([]string{"discretize", "-in", in, "-out", items}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"artifact", "-in", in, "-out", model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify", "-model", model, "-test", writeTable1(t)}); err == nil ||
		!strings.Contains(err.Error(), "item 1") {
		t.Errorf("classify -model over other items = %v, want an error naming item 1", err)
	}

	abc := []string{"x", "y", "z"}
	train := writeItems(t, "train.bool", abc, []string{"A", "x"}, []string{"A", "x", "y"}, []string{"B", "z"}, []string{"B", "y", "z"})
	reversed := writeItems(t, "reversed.bool", []string{"z", "y", "x"}, []string{"B", "z"}, []string{"A", "x"})
	for _, args := range [][]string{
		{"classify", "-train", train, "-test", reversed},
		{"classify", "-model", model, "-test", reversed},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "item 1 is \"z\"") {
			t.Errorf("run(%v) = %v, want an error naming item 1", args, err)
		}
	}
}

// TestClassifyScoresByClassName: each item file numbers its classes in
// order of first appearance, so a test file whose classes come in the
// other order must still be scored by name.
func TestClassifyScoresByClassName(t *testing.T) {
	abc := []string{"x", "y", "z"}
	train := writeItems(t, "train.bool", abc, []string{"A", "x"}, []string{"A", "x", "y"}, []string{"B", "z"}, []string{"B", "y", "z"})
	test := writeItems(t, "test.bool", abc, []string{"B", "z"}, []string{"A", "x"})
	out, err := runOutput(t, "classify", "-train", train, "-test", test)
	if err != nil {
		t.Fatal(err)
	}
	if want := "s1\tB\ns2\tA\naccuracy: 2/2 = 100.00%\n"; out != want {
		t.Errorf("classify printed %q, want %q", out, want)
	}
}

func TestMineAndTable(t *testing.T) {
	path := writeTable1(t)
	if err := run([]string{"mine", "-train", path, "-class", "Cancer", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"mine", "-train", path, "-class", "Cancer", "-k", "2", "-per-sample", "-tie-break"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"table", "-train", path, "-class", "Healthy"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"mine", "-train", path, "-class", "Nope", "-k", "2"}); err == nil {
		t.Error("unknown class should error")
	}
}

func TestDiscretizePipeline(t *testing.T) {
	in := writeContinuous(t)
	out := filepath.Join(t.TempDir(), "out.bool")
	if err := run([]string{"discretize", "-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	// The output must be readable and classify cleanly against itself.
	if err := run([]string{"classify", "-train", out, "-test", out}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalKFold(t *testing.T) {
	in := writeContinuousBig(t)
	if err := run([]string{"eval", "-in", in, "-folds", "3", "-classifiers", "bstc,cba"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"eval", "-in", in, "-classifiers", "nope"}); err == nil {
		t.Error("unknown classifier should error")
	}
	if err := run([]string{"eval"}); err == nil {
		t.Error("missing -in should error")
	}
	if err := run([]string{"eval", "-in", in, "-folds", "1"}); err == nil {
		t.Error("folds=1 should error")
	}
}

// TestEvalReadsARFF: eval, discretize and artifact read the same inputs,
// so an ARFF matrix runs through all three, and the artifact classifies
// the discretized file.
func TestEvalReadsARFF(t *testing.T) {
	c := &dataset.Continuous{
		GeneNames:  []string{"f1"},
		ClassNames: []string{"a", "b"},
		Classes:    []int{0, 0, 0, 1, 1, 1, 0, 1},
		Values: [][]float64{
			{1}, {1.1}, {0.9}, {5}, {5.1}, {4.9}, {1.05}, {5.05},
		},
	}
	path := filepath.Join(t.TempDir(), "d.arff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteARFF(f, "d", c); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"eval", "-in", path, "-folds", "2", "-classifiers", "bstc"}); err != nil {
		t.Fatal(err)
	}
	items, model := filepath.Join(t.TempDir(), "d.bool"), filepath.Join(t.TempDir(), "d.bstc")
	if err := run([]string{"discretize", "-in", path, "-out", items}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"artifact", "-in", path, "-out", model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify", "-model", model, "-test", items}); err != nil {
		t.Fatal(err)
	}
}

// writeContinuousBig writes a separable 2-class matrix with enough samples
// for 3-fold evaluation.
func writeContinuousBig(t *testing.T) string {
	t.Helper()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "noise"},
		ClassNames: []string{"A", "B"},
	}
	for i := 0; i < 12; i++ {
		v := 1.0 + float64(i)*0.05
		cl := 0
		if i%2 == 1 {
			v += 7
			cl = 1
		}
		c.Values = append(c.Values, []float64{v, 3})
		c.Classes = append(c.Classes, cl)
	}
	path := filepath.Join(t.TempDir(), "big.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteContinuous(f, c); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGlobalProfilingFlags(t *testing.T) {
	path := writeTable1(t)
	mem := filepath.Join(t.TempDir(), "mem.out")
	if err := run([]string{"-memprofile", mem, "table", "-train", path, "-class", "Cancer"}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	if err := run([]string{"-cpuprofile", cpu, "classify", "-train", path, "-test", path}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}
}

func TestClassifyVocabularyMismatch(t *testing.T) {
	a := writeTable1(t)
	in := writeContinuous(t)
	out := filepath.Join(t.TempDir(), "other.bool")
	if err := run([]string{"discretize", "-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify", "-train", a, "-test", out}); err == nil {
		t.Error("item vocabulary mismatch should error")
	}
}

func TestArtifactSubcommand(t *testing.T) {
	in := writeContinuous(t)
	out := filepath.Join(t.TempDir(), "model.bstc")
	if err := run([]string{"artifact", "-in", in, "-out", out, "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	art, err := eval.LoadArtifactMapped(out)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Close()
	class, _, err := art.ClassifyRow([]float64{1.1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := art.Classifier.ClassNames[class]; got != "A" {
		t.Errorf("classified training-like sample as %q, want A", got)
	}
	if err := run([]string{"artifact", "-in", in}); err == nil {
		t.Error("artifact without -out should error")
	}
}
