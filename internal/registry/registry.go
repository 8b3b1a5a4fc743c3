package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bstc/internal/eval"
	"bstc/internal/fault"
)

// Registry loads the artifacts a registry directory describes. Loaded
// artifacts are handed out as reference-counted Handles: a handle keeps its
// artifact mapped (mapped artifacts must not be unmapped while a request
// can still touch their bitsets), acquiring a loaded version shares its
// one copy, and releasing the last reference unmaps it.
type Registry struct {
	dir string

	mu      sync.Mutex
	entries map[string]*entry // key: name@version; every entry is referenced
	closed  bool
}

// entry is one loaded artifact with its reference count.
type entry struct {
	key    string
	handle Handle
	mapped *eval.MappedArtifact
	refs   int
}

// Handle is a loaded artifact plus the identity and provenance the serving
// tier reports. Release it when no request can reach the artifact anymore.
type Handle struct {
	Name         string
	ModelVersion string
	Artifact     *eval.Artifact
	// Digest is the full SHA-256 of the file bytes.
	Digest string
	// LoadNanos is the measured cold-start load time.
	LoadNanos int64

	r *Registry
	e *entry
}

// Open validates the directory and returns a registry over it. The
// manifest is read per Manifest call, not cached: the whole point is that
// the file changes underneath a running daemon.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: directory is required")
	}
	if st, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("registry: %s is not a directory", dir)
	}
	return &Registry{dir: dir, entries: make(map[string]*entry)}, nil
}

// Manifest reads and validates the directory's current manifest.
func (r *Registry) Manifest() (*Manifest, error) {
	return LoadManifest(r.dir)
}

// Acquire returns a handle on (name, version), sharing the loaded copy
// while the version is referenced and loading it otherwise. Loading maps
// the file zero-copy. The manifest must list the version, and when it pins
// a digest the served bytes must match it, whether they are loaded now or
// already shared. Every Acquire must be balanced by exactly one Release.
func (r *Registry) Acquire(m *Manifest, name, version string) (*Handle, error) {
	ent, ok := m.Find(name, version)
	if !ok {
		return nil, fmt.Errorf("registry: %s@%s not in manifest", name, version)
	}
	if h, err := r.share(ent, nil); h != nil || err != nil {
		return h, err
	}

	// Load outside the lock: artifact IO can take milliseconds and must not
	// block unrelated acquires. A racing Acquire of the same key may load
	// twice; the loser serves the winner's copy and unmaps its own.
	loaded, err := r.load(ent)
	if err != nil {
		return nil, err
	}
	h, err := r.share(ent, loaded)
	if h == nil || h.e != loaded {
		loaded.mapped.Close()
	}
	return h, err
}

// share takes a reference on ent's loaded copy after checking it against
// the manifest's pin. When the version is not loaded it adds loaded, or
// returns no handle and no error if loaded is nil.
func (r *Registry) share(ent ModelEntry, loaded *entry) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("registry: closed")
	}
	e, ok := r.entries[ent.Key()]
	switch {
	case ok:
		if err := checkPin(ent, e.handle.Digest); err != nil {
			return nil, err
		}
	case loaded == nil:
		return nil, nil
	default:
		e = loaded
		r.entries[e.key] = e
	}
	e.refs++
	return e.newHandle(r), nil
}

func (e *entry) newHandle(r *Registry) *Handle {
	h := e.handle
	h.r, h.e = r, e
	return &h
}

// checkPin refuses a digest that differs from the entry's pin, when one is
// set.
func checkPin(ent ModelEntry, digest string) error {
	if ent.SHA256 != "" && !strings.EqualFold(digest, ent.SHA256) {
		return fmt.Errorf("registry: %s: file digest %s does not match manifest pin %s",
			ent.Key(), digest, ent.SHA256)
	}
	return nil
}

// load maps one artifact file and verifies the digest pin against the
// mapped image itself, so the bytes checked are exactly the bytes served.
func (r *Registry) load(ent ModelEntry) (*entry, error) {
	if err := fault.Hit("registry.load"); err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", ent.Key(), err)
	}
	start := time.Now()
	mapped, err := eval.LoadArtifactMapped(filepath.Join(r.dir, ent.Path))
	if err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", ent.Key(), err)
	}
	digest := eval.FileDigest(mapped.Bytes())
	if err := checkPin(ent, digest); err != nil {
		mapped.Close()
		return nil, err
	}
	return &entry{
		key:    ent.Key(),
		mapped: mapped,
		handle: Handle{
			Name:         ent.Name,
			ModelVersion: ent.ModelVersion,
			Artifact:     mapped.Artifact,
			Digest:       digest,
			LoadNanos:    time.Since(start).Nanoseconds(),
		},
	}, nil
}

// Release returns the handle's reference. The last release unmaps the
// artifact; a later Acquire loads it again.
func (h *Handle) Release() {
	if h == nil || h.r == nil {
		return
	}
	r, e := h.r, h.e
	h.r, h.e = nil, nil
	r.mu.Lock()
	e.refs--
	last := e.refs == 0
	if last {
		delete(r.entries, e.key)
	}
	r.mu.Unlock()
	if last {
		e.mapped.Close()
	}
}

// Close refuses further acquires. Artifacts still referenced by
// outstanding handles stay mapped until their last Release.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}
