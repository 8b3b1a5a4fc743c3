package eval

import (
	"crypto/sha256"
	"encoding/hex"
)

// Fingerprint returns a stable content identity for the artifact: the
// first 16 hex characters of the SHA-256 over its canonical v2 encoding.
// The layout is byte-deterministic (pinned by the golden tests), so two
// artifacts that fingerprint equal classify identically — regardless of
// whether they were loaded from a mapping or a heap copy. The converse does
// not hold: different training rows can classify every query alike. The
// serving tier uses it to tell model versions apart and to observe a hot
// swap through /v1/model.
func (a *Artifact) Fingerprint() (string, error) {
	h := sha256.New()
	if err := a.SaveV2(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// FileDigest is the full SHA-256 of a serialized artifact file, rendered
// hex. The registry computes it on load so a manifest can pin the exact
// bytes a version must have (a rollout that silently swapped file contents
// fails loudly instead of serving the wrong model).
func FileDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
