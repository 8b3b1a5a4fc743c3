package eval

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenPath is an artifact in the current format, version 4 of the
// BSTCART2 layout. retiredV2Path and retiredV3Path are the same fixture in
// the retired versions 2 and 3, which the loader must refuse.
const (
	goldenPath    = "testdata/artifact_v4.golden"
	retiredV2Path = "testdata/artifact_v2.golden"
	retiredV3Path = "testdata/artifact_v3.golden"
)

// TestGoldenV2BackCompat proves artifact files written by earlier releases
// of the current format still serve: the committed golden file (trained on
// the tinyContinuous fixture) must load through LoadArtifactMapped, match a
// freshly trained artifact bit-exactly on every fixture sample, and re-save
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
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteArtifactFile(goldenPath, fresh, FormatV2); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadArtifactMapped(goldenPath)
	if err != nil {
		t.Fatalf("golden artifact no longer loads (regenerate with UPDATE_GOLDEN=1): %v", err)
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
		t.Fatal("re-saving the golden artifact changed its bytes: the writer drifted")
	}
}
