package eval

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

const goldenV2Path = "testdata/artifact_v2.golden"

// TestGoldenV2BackCompat proves artifact files written by earlier releases
// still serve: the committed golden file (trained on the tinyContinuous
// fixture) must load through LoadArtifactMapped, match a freshly trained
// artifact bit-exactly on every fixture sample, and re-save
// byte-identically — so the writer as well as the loader is still
// wire-compatible.
//
// Regenerate with UPDATE_GOLDEN=1 only alongside a deliberate,
// documented format break.
func TestGoldenV2BackCompat(t *testing.T) {
	c := tinyContinuous()
	fresh, err := TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenV2Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteArtifactFile(goldenV2Path, fresh, FormatV2); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadArtifactMapped(goldenV2Path)
	if err != nil {
		t.Fatalf("golden v2 artifact no longer loads (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	defer loaded.Close()
	for i, row := range c.Values {
		wantClass, wantConf, err := fresh.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		gotClass, gotConf, err := loaded.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if wantClass != gotClass || math.Float64bits(wantConf) != math.Float64bits(gotConf) {
			t.Fatalf("sample %d: golden artifact predicts (%d, %v), fresh training (%d, %v)",
				i, gotClass, gotConf, wantClass, wantConf)
		}
	}
	var again bytes.Buffer
	if err := loaded.SaveV2(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded.Bytes(), again.Bytes()) {
		t.Fatal("re-saving the golden v2 artifact changed its bytes: v2 writer drifted")
	}
}
