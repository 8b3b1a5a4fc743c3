package registry

import (
	"strings"
	"sync"
	"testing"
)

// TestCloseWhileHandlesHeld: Close with outstanding references must leave
// those artifacts resident (a mapped artifact must stay readable until its
// last Release), refuse new acquires, and let the final Release unmap
// directly without panicking or double-unmapping.
func TestCloseWhileHandlesHeld(t *testing.T) {
	dir, arts := writeRegistry(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}

	// Two handles on one mapped version: Close must not unmap under them.
	h1, err := r.Acquire(m, "bstc", "v2")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Acquire(m, "bstc", "v2")
	if err != nil {
		t.Fatal(err)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
	if _, err := r.Acquire(m, "bstc", "v1"); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Acquire after Close = %v, want closed error", err)
	}

	// The held mapping is still readable after Close — this touches the
	// mapped bitsets, so a premature munmap would fault right here.
	wantClass, wantConf, err := arts["v2"].ClassifyRow([]float64{8.3, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{h1, h2} {
		gotClass, gotConf, err := h.Artifact.ClassifyRow([]float64{8.3, 7})
		if err != nil {
			t.Fatal(err)
		}
		if gotClass != wantClass || gotConf != wantConf {
			t.Fatalf("post-Close ClassifyRow = (%d, %v), want (%d, %v)", gotClass, gotConf, wantClass, wantConf)
		}
	}

	// Releases after Close: the first drops a reference, the second (last)
	// must unmap exactly once.
	h1.Release()
	if n := loadedVersions(r); n != 1 {
		t.Fatalf("loaded after first release = %d, want 1 (h2 still holds it)", n)
	}
	h2.Release()
	if n := loadedVersions(r); n != 0 {
		t.Fatalf("loaded after last release = %d, want 0", n)
	}

	// Releasing an already-released handle is a no-op, never a second
	// refcount decrement or unmap.
	h1.Release()
	h2.Release()
}

// TestAcquireRacingClose hammers Acquire/Release from many goroutines while
// Close lands mid-flight. Run under -race this checks the lock discipline;
// the invariants checked here are that a successful Acquire always yields a
// usable artifact (even one granted just before Close) and that once the
// dust settles nothing is left resident.
func TestAcquireRacingClose(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		dir, _ := writeRegistry(t)
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Manifest()
		if err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			version := "v2"
			if g%2 == 0 {
				version = "v1"
			}
			go func(version string) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					h, err := r.Acquire(m, "bstc", version)
					if err != nil {
						if !strings.Contains(err.Error(), "closed") {
							t.Errorf("Acquire(%s) = %v, want success or closed", version, err)
						}
						return
					}
					// A granted handle must be readable even if Close ran
					// between the grant and here.
					if _, _, err := h.Artifact.ClassifyRow([]float64{1.1, 7}); err != nil {
						t.Errorf("ClassifyRow on live handle: %v", err)
					}
					h.Release()
				}
			}(version)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r.Close() //nolint:errcheck // Close never errors; the race is the test
		}()
		close(start)
		wg.Wait()

		if n := loadedVersions(r); n != 0 {
			t.Fatalf("iter %d: %d versions loaded after close and all releases, want 0", iter, n)
		}
	}
}
