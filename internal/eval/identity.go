package eval

import (
	"crypto/sha256"
	"encoding/hex"
)

// FileDigest is the full SHA-256 of a serialized artifact file, rendered
// hex. The registry computes it on load so a manifest can pin the exact
// bytes a version must have (a rollout that silently swapped file contents
// fails loudly instead of serving the wrong model), and the serving tier
// reports its first 16 characters as the version's fingerprint.
func FileDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
