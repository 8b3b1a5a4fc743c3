package eval

import (
	"bytes"
	"testing"
)

// FuzzLoadArtifact asserts the artifact decoder never panics on arbitrary
// bytes and that anything it accepts is internally consistent enough to
// survive a save→load round trip.
func FuzzLoadArtifact(f *testing.F) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := art.SaveV2(&seed); err != nil {
		f.Fatal(err)
	}
	good := seed.Bytes()
	f.Add(good)
	f.Add([]byte(artifactMagicV2))
	f.Add([]byte(nil))
	f.Add([]byte(artifactMagicV1))
	f.Add(append([]byte(artifactMagicV1), good...))
	// Truncations: inside the magic, inside and just past the header,
	// mid-metadata, and one byte short of complete.
	for _, n := range []int{3, 8, v2HeaderLen - 1, v2HeaderLen, v2HeaderLen + 16,
		len(good) / 3, len(good) / 2, 3 * len(good) / 4, len(good) - 1} {
		f.Add(good[:n])
	}
	// Single bit flips: in the magic, in each header field (version,
	// section offsets and lengths, checksums), and across the sections.
	for _, off := range []int{0, 8, 12, 16, 24, 32, 40, 48, 52,
		v2HeaderLen + 4, len(good) / 2, len(good) - 2} {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeV2(data)
		if err != nil {
			return
		}
		if err := a.validate(); err != nil {
			t.Fatalf("accepted artifact fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := a.SaveV2(&buf); err != nil {
			t.Fatalf("cannot re-save accepted artifact: %v", err)
		}
		if _, err := decodeV2(buf.Bytes()); err != nil {
			t.Fatalf("round trip of accepted artifact failed: %v", err)
		}
	})
}
