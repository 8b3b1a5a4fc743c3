package eval

import (
	"bytes"
	"testing"
)

// TestFingerprintStable pins the identity contract: the fingerprint is
// deterministic, survives a save and load, and changes when the model
// changes.
func TestFingerprintStable(t *testing.T) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := art.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q: want 16 hex chars", fp)
	}
	again, err := art.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if again != fp {
		t.Fatalf("fingerprint not deterministic: %q then %q", fp, again)
	}

	// A v2 round trip must preserve identity.
	var v2Buf bytes.Buffer
	if err := art.SaveV2(&v2Buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := decodeV2(v2Buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.Fingerprint(); err != nil || got != fp {
		t.Fatalf("v2 round trip fingerprint = %q (%v), want %q", got, err, fp)
	}

	// A different model must not collide.
	oc := tinyContinuous()
	oc.Values[0][0] = 2.5 // shift one training value: different cuts, different model
	other, err := TrainArtifact(oc, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ofp, err := other.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if ofp == fp {
		t.Fatalf("distinct artifacts share fingerprint %q", fp)
	}

	if d := FileDigest(v2Buf.Bytes()); len(d) != 64 {
		t.Fatalf("FileDigest length %d, want 64", len(d))
	}
	if FileDigest(v2Buf.Bytes()) != FileDigest(v2Buf.Bytes()) {
		t.Fatal("FileDigest not deterministic")
	}
}
