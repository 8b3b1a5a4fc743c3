package eval

import (
	"bytes"
	"errors"
	"testing"

	"bstc/internal/core"
	"bstc/internal/dataset"
)

func tinyContinuous() *dataset.Continuous {
	return &dataset.Continuous{
		GeneNames:  []string{"sep", "flat", "wide"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 0, 1, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7, 0.1}, {1.2, 7, 0.2}, {1.4, 7, 0.3}, {1.6, 7, 0.35},
			{8.0, 7, 0.9}, {8.2, 7, 0.95}, {8.4, 7, 1.0}, {8.6, 7, 1.1},
		},
	}
}

func TestTrainArtifactWorkerInvariance(t *testing.T) {
	c := tinyContinuous()
	a1, err := TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := TrainArtifact(c, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b8 bytes.Buffer
	if err := a1.SaveV2(&b1); err != nil {
		t.Fatal(err)
	}
	if err := a8.SaveV2(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatal("artifact bytes depend on the training worker count")
	}
}

// TestLoadArtifactRejectsBadStreams feeds the v2 decoder a table of
// damaged and foreign images; each must fail with the typed error.
func TestLoadArtifactRejectsBadStreams(t *testing.T) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.SaveV2(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":           nil,
		"bad magic":       []byte("GOBBLEDYGOOK\n\x00\x01"),
		"truncated magic": good[:4],
		"header only":     good[:v2HeaderLen],
		"truncated body":  good[:len(good)-7],
		"magic only":      []byte(artifactMagicV2),
		"retired v1":      []byte(artifactMagicV1),
	}
	for name, data := range cases {
		if _, err := loadNoPanic(t, name, data); !errors.Is(err, ErrCorruptArtifact) {
			t.Errorf("%s: err = %v, want ErrCorruptArtifact", name, err)
		}
	}

	// Halves that load individually but do not belong together must be
	// rejected by the cross-check.
	other := tinyContinuous()
	other.GeneNames = []string{"a", "b", "c"}
	mismatched, err := TrainArtifact(other, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	franken := &Artifact{Disc: mismatched.Disc, Classifier: art.Classifier}
	var fb bytes.Buffer
	if err := franken.SaveV2(&fb); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeV2(fb.Bytes()); !errors.Is(err, ErrCorruptArtifact) {
		t.Errorf("artifact with mismatched item vocabularies: err = %v, want ErrCorruptArtifact", err)
	}
}

func TestTrainArtifactErrors(t *testing.T) {
	if _, err := TrainArtifact(&dataset.Continuous{GeneNames: []string{"g"}}, nil, 1); err == nil {
		t.Error("empty dataset should error")
	}
	flat := &dataset.Continuous{
		GeneNames:  []string{"g"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 1},
		Values:     [][]float64{{1}, {1}},
	}
	if _, err := TrainArtifact(flat, nil, 1); err == nil {
		t.Error("dataset with no informative genes should error")
	}
}

func TestArtifactClassifyRowMatchesBatchPath(t *testing.T) {
	c := tinyContinuous()
	art, err := TrainArtifact(c, &core.EvalOptions{Arithmetization: core.ProductCombine}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := art.Disc.Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	want := art.Classifier.ClassifyBatchParallel(b, 1)
	for i, row := range c.Values {
		got, _, err := art.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("sample %d: ClassifyRow = %d, batch = %d", i, got, want[i])
		}
	}
}
