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

// Config tunes a Registry. The zero value of every field selects a sane
// default.
type Config struct {
	// Dir is the registry directory (required).
	Dir string
	// Cache bounds how many loaded-but-unreferenced artifacts stay warm
	// for instant rollback before the least recently used is evicted and
	// unmapped (default 4; negative keeps none).
	Cache int
}

// Registry loads and caches the artifacts a registry directory describes.
// Loaded artifacts are handed out as reference-counted Handles: a handle
// keeps its artifact resident (mapped artifacts must not be unmapped while
// a request can still touch their bitsets), and releasing the last
// reference moves the artifact to a bounded warm LRU instead of dropping
// it, so swapping back to a recent version costs nothing.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry // key: name@version
	idle    []*entry          // refs == 0, oldest first
	closed  bool
}

// entry is one loaded artifact with its reference count.
type entry struct {
	key    string
	handle Handle
	mapped *eval.MappedArtifact // nil once unmapped
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

// Key renders the handle's canonical name@version key.
func (h *Handle) Key() string { return h.Name + "@" + h.ModelVersion }

// Open validates the directory and returns a registry over it. The
// manifest is read per Manifest call, not cached: the whole point is that
// the file changes underneath a running daemon.
func Open(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("registry: Dir is required")
	}
	if st, err := os.Stat(cfg.Dir); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("registry: %s is not a directory", cfg.Dir)
	}
	if cfg.Cache == 0 {
		cfg.Cache = 4
	}
	if cfg.Cache < 0 {
		cfg.Cache = 0
	}
	return &Registry{cfg: cfg, entries: make(map[string]*entry)}, nil
}

// Dir returns the registry directory.
func (r *Registry) Dir() string { return r.cfg.Dir }

// Manifest reads and validates the directory's current manifest.
func (r *Registry) Manifest() (*Manifest, error) {
	return LoadManifest(r.cfg.Dir)
}

// Acquire returns a handle on (name, version), loading the artifact if it
// is neither referenced nor warm in the LRU. Loading maps the file
// zero-copy and verifies the manifest's digest pin when one is set. Every
// Acquire must be balanced by exactly one Release.
func (r *Registry) Acquire(m *Manifest, name, version string) (*Handle, error) {
	key := name + "@" + version
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: closed")
	}
	if e, ok := r.entries[key]; ok {
		if e.refs == 0 {
			r.unidleLocked(e)
		}
		e.refs++
		r.mu.Unlock()
		h := e.handle
		h.r, h.e = r, e
		return &h, nil
	}
	r.mu.Unlock()

	// Load outside the lock: artifact IO can take milliseconds and must not
	// block unrelated acquires. A racing Acquire of the same key may load
	// twice; the second loser is released below.
	ent, ok := m.Find(name, version)
	if !ok {
		return nil, fmt.Errorf("registry: %s not in manifest", key)
	}
	loaded, err := r.load(ent)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		loaded.closeMapping()
		return nil, fmt.Errorf("registry: closed")
	}
	if e, ok := r.entries[key]; ok {
		// Lost the race: serve the incumbent, drop our copy.
		if e.refs == 0 {
			r.unidleLocked(e)
		}
		e.refs++
		r.mu.Unlock()
		loaded.closeMapping()
		h := e.handle
		h.r, h.e = r, e
		return &h, nil
	}
	loaded.refs = 1
	r.entries[key] = loaded
	r.mu.Unlock()
	h := loaded.handle
	h.r, h.e = r, loaded
	return &h, nil
}

// load maps one artifact file and verifies the digest pin against the
// mapped image itself, so the bytes checked are exactly the bytes served.
func (r *Registry) load(ent ModelEntry) (*entry, error) {
	if err := fault.Hit("registry.load"); err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", ent.Key(), err)
	}
	start := time.Now()
	mapped, err := eval.LoadArtifactMapped(filepath.Join(r.cfg.Dir, ent.Path))
	if err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", ent.Key(), err)
	}
	digest := eval.FileDigest(mapped.Bytes())
	if ent.SHA256 != "" && !strings.EqualFold(digest, ent.SHA256) {
		mapped.Close()
		return nil, fmt.Errorf("registry: load %s: file digest %s does not match manifest pin %s",
			ent.Key(), digest[:16], ent.SHA256[:16])
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

func (e *entry) closeMapping() {
	if e.mapped != nil {
		e.mapped.Close()
		e.mapped = nil
	}
}

// Release returns the handle's reference. The last release parks the
// artifact in the warm LRU; beyond Config.Cache idle artifacts, the least
// recently used is evicted and, when mapped, unmapped.
func (h *Handle) Release() {
	if h == nil || h.r == nil {
		return
	}
	r, e := h.r, h.e
	h.r, h.e = nil, nil
	var evict []*entry
	r.mu.Lock()
	e.refs--
	if e.refs == 0 {
		if r.closed {
			delete(r.entries, e.key)
			evict = append(evict, e)
		} else {
			r.idle = append(r.idle, e)
			for len(r.idle) > r.cfg.Cache {
				old := r.idle[0]
				r.idle = r.idle[1:]
				delete(r.entries, old.key)
				evict = append(evict, old)
			}
		}
	}
	r.mu.Unlock()
	for _, old := range evict {
		old.closeMapping()
	}
}

// unidleLocked removes e from the idle list. Callers hold r.mu.
func (r *Registry) unidleLocked(e *entry) {
	for i, cand := range r.idle {
		if cand == e {
			r.idle = append(r.idle[:i], r.idle[i+1:]...)
			return
		}
	}
}

// Stats reports the cache state: loaded artifacts, how many are idle.
func (r *Registry) Stats() (loaded, idle int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries), len(r.idle)
}

// Close drops the warm cache and refuses further acquires. Artifacts still
// referenced by outstanding handles stay resident until released; their
// final Release unmaps them directly.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	idle := r.idle
	r.idle = nil
	for _, e := range idle {
		delete(r.entries, e.key)
	}
	r.mu.Unlock()
	for _, e := range idle {
		e.closeMapping()
	}
	return nil
}
