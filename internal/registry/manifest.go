// Package registry is the multi-model substrate of the serving tier: a
// directory of named, versioned artifact files described by a manifest,
// mapped zero-copy on demand (eval.LoadArtifactMapped), and
// cached with reference counts so the routing layer can hold one version
// while another drains — and a rolled-back canary is still warm.
//
// The on-disk shape is one directory:
//
//	registry/
//	  manifest.json
//	  model-v1.bstc
//	  model-v2.bstc
//
// The manifest names every (model, version) pair, the file that backs it,
// and the desired routing: a stable version plus an optional canary with a
// traffic percentage and hash seed. Re-reading the manifest and applying
// the difference is the whole hot-swap story; the daemon does that on
// SIGHUP or when polling notices the manifest changed.
package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ManifestName is the manifest's file name inside a registry directory.
const ManifestName = "manifest.json"

// manifestFormatVersion guards the manifest schema.
const manifestFormatVersion = 1

// Manifest is the parsed, validated registry description.
type Manifest struct {
	// Version is the manifest schema version (must be 1).
	Version int `json:"version"`
	// Models lists every artifact the registry knows. (name, version)
	// pairs are unique.
	Models []ModelEntry `json:"models"`
	// Serve is the desired routing state.
	Serve Route `json:"serve"`
}

// ModelEntry describes one artifact file.
type ModelEntry struct {
	// Name identifies the model family ("bstc-prostate").
	Name string `json:"name"`
	// ModelVersion identifies this build of the model ("v1", "2024-08-01").
	ModelVersion string `json:"model_version"`
	// Path locates the artifact file, relative to the registry directory;
	// absolute paths and paths escaping the directory are rejected.
	Path string `json:"path"`
	// SHA256, when set, pins the exact file bytes (hex). Loading a file
	// whose digest differs fails instead of serving the wrong model.
	SHA256 string `json:"sha256,omitempty"`
}

// Route is the manifest's desired traffic split for one model family.
type Route struct {
	// Model picks the family to serve. May be omitted when the manifest
	// holds exactly one family.
	Model string `json:"model,omitempty"`
	// Stable is the version taking non-canary traffic. May be omitted when
	// the family has exactly one version.
	Stable string `json:"stable,omitempty"`
	// Canary, when set, receives CanaryPercent of traffic.
	Canary string `json:"canary,omitempty"`
	// CanaryPercent is the canary's traffic share in [0, 100].
	CanaryPercent float64 `json:"canary_percent,omitempty"`
	// Seed keys the deterministic routing hash; the same seed and routing
	// key always land on the same version, across replicas and restarts.
	Seed uint64 `json:"seed,omitempty"`
}

// Key renders the canonical name@version key of an entry.
func (e ModelEntry) Key() string { return e.Name + "@" + e.ModelVersion }

// validName reports whether s is usable as a model name or version: it
// must be non-empty and stick to a conservative charset so keys, metric
// labels, and log lines never need escaping.
func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// validPath accepts only a relative path that stays inside the registry
// directory.
func validPath(p string) bool {
	return p != "" && !filepath.IsAbs(p) && filepath.IsLocal(p)
}

func isHex(s string) bool {
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r >= 'A' && r <= 'F':
		default:
			return false
		}
	}
	return true
}

// maxManifestBytes bounds how large a manifest ParseManifest accepts; a
// real one is a few hundred bytes.
const maxManifestBytes = 1 << 20

// ParseManifest decodes and validates manifest bytes. It never panics on
// any input (it is the registry's fuzzed entry point) and rejects anything
// the registry could not serve unambiguously: duplicate (name, version)
// pairs, path traversal, malformed digests, routes naming versions that do
// not exist, canary splits outside [0, 100]. Route defaults are resolved
// here, so a returned Manifest always has a concrete Serve.Model and
// Serve.Stable.
func ParseManifest(data []byte) (*Manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("registry: manifest exceeds %d bytes", maxManifestBytes)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("registry: manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("registry: manifest: trailing data after JSON document")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *Manifest) validate() error {
	if m.Version != manifestFormatVersion {
		return fmt.Errorf("registry: manifest version %d, want %d", m.Version, manifestFormatVersion)
	}
	if len(m.Models) == 0 {
		return fmt.Errorf("registry: manifest lists no models")
	}
	seen := make(map[string]bool, len(m.Models))
	families := make(map[string][]string)
	for i, e := range m.Models {
		if !validName(e.Name) {
			return fmt.Errorf("registry: models[%d]: invalid name %q", i, e.Name)
		}
		if !validName(e.ModelVersion) {
			return fmt.Errorf("registry: models[%d]: invalid model_version %q", i, e.ModelVersion)
		}
		if !validPath(e.Path) {
			return fmt.Errorf("registry: models[%d] (%s): path %q must be relative and stay inside the registry", i, e.Key(), e.Path)
		}
		if e.SHA256 != "" && (len(e.SHA256) != 64 || !isHex(e.SHA256)) {
			return fmt.Errorf("registry: models[%d] (%s): sha256 must be 64 hex chars", i, e.Key())
		}
		if seen[e.Key()] {
			return fmt.Errorf("registry: duplicate model %s", e.Key())
		}
		seen[e.Key()] = true
		families[e.Name] = append(families[e.Name], e.ModelVersion)
	}

	// Resolve route defaults, then check it names real versions.
	if m.Serve.Model == "" {
		if len(families) != 1 {
			return fmt.Errorf("registry: serve.model required with %d model families", len(families))
		}
		m.Serve.Model = m.Models[0].Name
	}
	versions, ok := families[m.Serve.Model]
	if !ok {
		return fmt.Errorf("registry: serve.model %q has no entries", m.Serve.Model)
	}
	if m.Serve.Stable == "" {
		if len(versions) != 1 {
			return fmt.Errorf("registry: serve.stable required: model %q has %d versions", m.Serve.Model, len(versions))
		}
		m.Serve.Stable = versions[0]
	}
	if _, ok := m.Find(m.Serve.Model, m.Serve.Stable); !ok {
		return fmt.Errorf("registry: serve.stable %s@%s not in models", m.Serve.Model, m.Serve.Stable)
	}
	if m.Serve.CanaryPercent < 0 || m.Serve.CanaryPercent > 100 ||
		m.Serve.CanaryPercent != m.Serve.CanaryPercent { // NaN
		return fmt.Errorf("registry: canary_percent %v outside [0, 100]", m.Serve.CanaryPercent)
	}
	if m.Serve.Canary != "" {
		if m.Serve.Canary == m.Serve.Stable {
			return fmt.Errorf("registry: canary and stable are both %q", m.Serve.Canary)
		}
		if _, ok := m.Find(m.Serve.Model, m.Serve.Canary); !ok {
			return fmt.Errorf("registry: serve.canary %s@%s not in models", m.Serve.Model, m.Serve.Canary)
		}
	} else if m.Serve.CanaryPercent > 0 {
		return fmt.Errorf("registry: canary_percent %v with no canary version", m.Serve.CanaryPercent)
	}
	return nil
}

// Find returns the entry for (name, version).
func (m *Manifest) Find(name, version string) (ModelEntry, bool) {
	for _, e := range m.Models {
		if e.Name == name && e.ModelVersion == version {
			return e, true
		}
	}
	return ModelEntry{}, false
}

// LoadManifest reads and validates dir/manifest.json.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return ParseManifest(data)
}
