package eval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
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

	// Images whose framing and checksums are sound but whose stored
	// training set is not. The class labels end the metadata, after their
	// count; each case re-frames edited labels or words with valid CRCs.
	metaOff := binary.LittleEndian.Uint64(good[16:])
	meta := good[metaOff : metaOff+binary.LittleEndian.Uint64(good[24:])]
	words := good[binary.LittleEndian.Uint64(good[32:]):]
	n := len(art.Classifier.TrainingSet().Classes)
	labelsAt := len(meta) - 8*n
	stored := make([]uint64, n)
	for i := range stored {
		stored[i] = binary.LittleEndian.Uint64(meta[labelsAt+8*i:])
	}
	image := func(labels []uint64, words []byte) []byte {
		m := binary.LittleEndian.AppendUint64(meta[:labelsAt-8:labelsAt-8], uint64(len(labels)))
		for _, l := range labels {
			m = binary.LittleEndian.AppendUint64(m, l)
		}
		return frameV2(nil, m, words)
	}
	if !bytes.Equal(image(stored, words), good) {
		t.Fatal("re-framing the stored labels and words does not reproduce the image")
	}
	outOfRange := append([]uint64(nil), stored...)
	outOfRange[n-1] = uint64(len(art.Classifier.ClassNames))
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"class label out of range", "class index", image(outOfRange, words)},
		{"a label more than rows", "training rows", image(append(stored[:n:n], 0), words)},
		{"a label fewer than rows", "training rows", image(stored[:n-1], words)},
		{"a word more than labels x words per row", "training rows", image(stored, append(words[:len(words):len(words)], make([]byte, 8)...))},
		{"a class with no rows", "no training samples", image(make([]uint64, n), words)},
	} {
		_, err := loadNoPanic(t, tc.name, tc.data)
		if !errors.Is(err, ErrCorruptArtifact) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrCorruptArtifact mentioning %q", tc.name, err, tc.want)
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
