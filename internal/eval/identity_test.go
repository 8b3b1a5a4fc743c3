package eval

import (
	"bytes"
	"testing"

	"bstc/internal/dataset"
)

// TestFileDigest pins the identity contract of a file digest: 64 hex
// characters, deterministic, and different for different artifacts.
func TestFileDigest(t *testing.T) {
	image := func(c *dataset.Continuous) []byte {
		t.Helper()
		art, err := TrainArtifact(c, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := art.SaveV2(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := image(tinyContinuous())
	d := FileDigest(data)
	if len(d) != 64 {
		t.Fatalf("FileDigest %q: want 64 hex characters", d)
	}
	for _, c := range d {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			t.Fatalf("FileDigest %q: not lower-case hex", d)
		}
	}
	if again := FileDigest(image(tinyContinuous())); again != d {
		t.Fatalf("FileDigest not deterministic: %s then %s", d, again)
	}

	other := tinyContinuous()
	other.Values[0][0] = 2.5 // shift one training value: different cuts, different model
	if od := FileDigest(image(other)); od == d {
		t.Fatalf("distinct artifacts share digest %s", d)
	}
}
