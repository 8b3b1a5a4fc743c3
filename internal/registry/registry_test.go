package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/fault"
)

// trainArtifact builds a small artifact whose predictions depend on shift,
// so different shifts are genuinely different models.
func trainArtifact(t testing.TB, shift float64) *eval.Artifact {
	t.Helper()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 1, 1, 1},
		Values: [][]float64{
			{1.0 + shift, 7}, {1.2 + shift, 7}, {1.4 + shift, 7},
			{8.0 + shift, 7}, {8.2 + shift, 7}, {8.4 + shift, 7},
		},
	}
	art, err := eval.TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// writeRegistry materializes a registry directory: two versions of one
// model and a manifest routing stable=v1.
func writeRegistry(t testing.TB) (dir string, arts map[string]*eval.Artifact) {
	t.Helper()
	dir = t.TempDir()
	arts = map[string]*eval.Artifact{
		"v1": trainArtifact(t, 0),
		"v2": trainArtifact(t, 0.5),
	}
	if err := eval.WriteArtifactFile(filepath.Join(dir, "model-v1.bstc"), arts["v1"], eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	if err := eval.WriteArtifactFile(filepath.Join(dir, "model-v2.bstc"), arts["v2"], eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	manifest := `{
	  "version": 1,
	  "models": [
	    {"name": "bstc", "model_version": "v1", "path": "model-v1.bstc"},
	    {"name": "bstc", "model_version": "v2", "path": "model-v2.bstc"}
	  ],
	  "serve": {"model": "bstc", "stable": "v1"}
	}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, arts
}

// TestRegistryAcquireFormats: each version maps from its v2 file with a
// measured load time and a full digest, classifies exactly like the
// artifact it was written from, and a second acquire shares the copy.
func TestRegistryAcquireFormats(t *testing.T) {
	dir, arts := writeRegistry(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}

	h1, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	h2, err := r.Acquire(m, "bstc", "v2")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h1.LoadNanos <= 0 || h2.LoadNanos <= 0 {
		t.Errorf("load nanos not measured: %d, %d", h1.LoadNanos, h2.LoadNanos)
	}
	if len(h1.Digest) != 64 || len(h2.Digest) != 64 {
		t.Errorf("digests not full sha256: %q, %q", h1.Digest, h2.Digest)
	}

	// Loaded versions classify exactly like the artifacts they were built
	// from.
	for v, h := range map[string]*Handle{"v1": h1, "v2": h2} {
		want, got := arts[v], h.Artifact
		for _, row := range [][]float64{{1.1, 7}, {8.3, 7}} {
			wc, wconf, err := want.ClassifyRow(row)
			if err != nil {
				t.Fatal(err)
			}
			gc, gconf, err := got.ClassifyRow(row)
			if err != nil {
				t.Fatal(err)
			}
			if gc != wc || gconf != wconf {
				t.Errorf("%s: ClassifyRow = (%d, %v), want (%d, %v)", v, gc, gconf, wc, wconf)
			}
		}
	}

	// A second acquire of a referenced version shares the loaded artifact.
	h1b, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if h1b.Artifact != h1.Artifact {
		t.Error("second acquire loaded a new copy instead of sharing")
	}
	h1b.Release()

	if _, err := r.Acquire(m, "bstc", "v9"); err == nil {
		t.Error("acquiring an unlisted version succeeded")
	}
	if n := loadedVersions(r); n != 2 {
		t.Errorf("%d versions loaded while both are held, want 2", n)
	}
}

// loadedVersions counts the registry's loaded versions.
func loadedVersions(r *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// TestRegistryLastReleaseUnmaps: the last release of a version unmaps it
// and forgets it, so a re-acquire loads a new copy.
func TestRegistryLastReleaseUnmaps(t *testing.T) {
	dir, _ := writeRegistry(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}

	h1, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	art1, mapped := h1.Artifact, h1.e.mapped
	h1.Release()
	if mapped.Bytes() != nil {
		t.Error("last release left the artifact mapped")
	}
	if n := loadedVersions(r); n != 0 {
		t.Fatalf("%d versions loaded after the last release, want 0", n)
	}

	h1, err = r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	if h1.Artifact == art1 {
		t.Error("re-acquire served the released artifact instead of loading it")
	}
	if h1.LoadNanos <= 0 {
		t.Errorf("re-acquire load nanos = %d, want a measured load", h1.LoadNanos)
	}
}

// TestRegistryReferencedNeverEvicted: a referenced artifact survives any
// amount of churn on other versions; only its own last release unmaps it.
func TestRegistryReferencedNeverEvicted(t *testing.T) {
	dir, _ := writeRegistry(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	held, err := r.Acquire(m, "bstc", "v2") // mapped: an early unmap would fault below
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h, err := r.Acquire(m, "bstc", "v1")
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// The mapped artifact must still classify (a use-after-unmap would
	// fault or race).
	if _, _, err := held.Artifact.ClassifyRow([]float64{8.3, 7}); err != nil {
		t.Fatal(err)
	}
	held.Release()
	if n := loadedVersions(r); n != 0 {
		t.Errorf("%d versions loaded after every release, want 0", n)
	}
}

// TestRegistryDigestPin: a manifest digest pin must match the file bytes,
// in either hex case. A mismatch is refused whether the version is loaded
// or not, names both digests, and loads nothing.
func TestRegistryDigestPin(t *testing.T) {
	dir, _ := writeRegistry(t)
	data, err := os.ReadFile(filepath.Join(dir, "model-v1.bstc"))
	if err != nil {
		t.Fatal(err)
	}
	good := eval.FileDigest(data)
	bad := strings.Repeat("0", 64)
	writeManifest := func(digest string) *Manifest {
		body := fmt.Sprintf(`{
		  "version": 1,
		  "models": [{"name": "bstc", "model_version": "v1", "path": "model-v1.bstc", "sha256": %q}]
		}`, digest)
		m, err := ParseManifest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, pin := range []string{good, strings.ToUpper(good)} {
		h, err := r.Acquire(writeManifest(pin), "bstc", "v1")
		if err != nil {
			t.Fatalf("pinned acquire with matching digest %s: %v", pin, err)
		}
		if h.Digest != good {
			t.Errorf("handle digest %s, want %s", h.Digest, good)
		}
		h.Release()
	}

	refused := func(when string, wantLoaded int) {
		t.Helper()
		_, err := r.Acquire(writeManifest(bad), "bstc", "v1")
		if err == nil {
			t.Fatalf("%s: acquire with mismatched digest pin succeeded", when)
		}
		if !strings.Contains(err.Error(), good) || !strings.Contains(err.Error(), bad) {
			t.Fatalf("%s: error %q does not name both digests", when, err)
		}
		if n := loadedVersions(r); n != wantLoaded {
			t.Fatalf("%s: %d versions loaded after the refusal, want %d", when, n, wantLoaded)
		}
	}
	refused("not loaded", 0)

	held, err := r.Acquire(writeManifest(good), "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	refused("held", 1)
	if _, _, err := held.Artifact.ClassifyRow([]float64{1.1, 7}); err != nil {
		t.Fatal(err)
	}
	held.Release()
}

// TestRegistryLoadFault: an injected fault at registry.load surfaces as an
// error — the caller decides what keeps serving (the swap path keeps the
// old version).
func TestRegistryLoadFault(t *testing.T) {
	dir, _ := writeRegistry(t)
	in := fault.NewInjector(21)
	in.Set("registry.load", fault.Rule{Prob: 1, MaxFires: 1, Err: fmt.Errorf("chaos: load blocked")})
	fault.Enable(in)
	defer fault.Disable()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire(m, "bstc", "v1"); err == nil {
		t.Fatal("faulted load succeeded")
	}
	// The rule is exhausted: the next acquire works and the failed one left
	// nothing loaded.
	h, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

// TestRegistryConcurrentAcquire races many acquires and releases of both
// versions; under -race this pins the locking discipline, and every loser
// of the load race must serve the winner's loaded artifact.
func TestRegistryConcurrentAcquire(t *testing.T) {
	dir, _ := writeRegistry(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			version := "v1"
			if g%2 == 1 {
				version = "v2"
			}
			for i := 0; i < 20; i++ {
				h, err := r.Acquire(m, "bstc", version)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := h.Artifact.ClassifyRow([]float64{1.1, 7}); err != nil {
					t.Error(err)
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire(m, "bstc", "v1"); err == nil {
		t.Error("acquire after Close succeeded")
	}
}
