package sketch

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// exactCounts replays a stream into a plain map — the reference every
// property test compares against.
func exactCounts(stream []string, weights []uint64) map[string]uint64 {
	m := map[string]uint64{}
	for i, k := range stream {
		m[k] += weights[i]
	}
	return m
}

// randomStream draws a skewed key stream (small keyspace, zipf-ish repeat
// structure) so sketches of modest width see both hits and evictions.
func randomStream(r *rand.Rand, n, keyspace int) ([]string, []uint64) {
	keys := make([]string, n)
	weights := make([]uint64, n)
	for i := range keys {
		k := r.Intn(keyspace)
		if r.Intn(3) > 0 {
			k = r.Intn(1 + keyspace/8) // hot subset
		}
		keys[i] = fmt.Sprintf("key-%03d", k)
		weights[i] = uint64(1 + r.Intn(5))
	}
	return keys, weights
}

// TestSketchInvariants pins the space-saving guarantees on random streams:
// estimates never undercount, the claimed per-entry error bound holds, and
// every overcount stays within εN = N/width.
func TestSketchInvariants(t *testing.T) {
	if w := New(0).Width(); w != 1 {
		t.Errorf("New(0) width = %d, want 1", w)
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		width := 1 + r.Intn(24)
		s := New(width)
		stream, weights := randomStream(r, 50+r.Intn(400), 8+r.Intn(64))
		exact := exactCounts(stream, weights)
		var n uint64
		for i, k := range stream {
			s.Offer([]byte(k), weights[i])
			n += weights[i]
		}
		if s.N() != n {
			t.Fatalf("trial %d: N=%d, offered %d", trial, s.N(), n)
		}
		if s.Len() > width {
			t.Fatalf("trial %d: %d entries exceed width %d", trial, s.Len(), width)
		}
		if bound := s.ErrorBound(); bound*uint64(width) > n {
			t.Fatalf("trial %d: error bound %d exceeds N/width = %d/%d", trial, bound, n, width)
		}
		for k, truth := range exact {
			est, maxErr, _ := s.Estimate([]byte(k))
			if est < truth {
				t.Fatalf("trial %d key %s: estimate %d < exact %d", trial, k, est, truth)
			}
			if est-truth > maxErr {
				t.Fatalf("trial %d key %s: overcount %d exceeds claimed bound %d", trial, k, est-truth, maxErr)
			}
			if maxErr > s.ErrorBound() {
				t.Fatalf("trial %d key %s: maxError %d exceeds sketch bound %d", trial, k, maxErr, s.ErrorBound())
			}
		}
		// Untracked keys: estimate = bound = MinCount covers a zero true count.
		est, maxErr, tracked := s.Estimate([]byte("never-offered"))
		if tracked || est != s.MinCount() || maxErr != est {
			t.Fatalf("trial %d: absent key estimate (%d,%d,%v), want (%d,%d,false)",
				trial, est, maxErr, tracked, s.MinCount(), s.MinCount())
		}
	}
}

// TestSketchExactWhenWide pins the degenerate case: width ≥ distinct keys
// means no evictions, zero error, exact counts.
func TestSketchExactWhenWide(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	stream, weights := randomStream(r, 300, 32)
	exact := exactCounts(stream, weights)
	s := New(len(exact) + 4)
	for i, k := range stream {
		s.Offer([]byte(k), weights[i])
	}
	if s.Evictions() != 0 {
		t.Fatalf("wide sketch evicted %d times", s.Evictions())
	}
	for k, truth := range exact {
		est, maxErr, tracked := s.Estimate([]byte(k))
		if !tracked || est != truth || maxErr != 0 {
			t.Fatalf("key %s: (%d,%d,%v), want exact (%d,0,true)", k, est, maxErr, tracked, truth)
		}
	}
}

// TestSeenAtLeast pins the no-false-positive contract of the guaranteed
// count: SeenAtLeast(k, n) implies the true count reaches n.
func TestSeenAtLeast(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		s := New(1 + r.Intn(16))
		stream, weights := randomStream(r, 200, 48)
		exact := exactCounts(stream, weights)
		for i, k := range stream {
			s.Offer([]byte(k), weights[i])
		}
		for k, truth := range exact {
			for _, n := range []uint64{1, 2, 3, truth, truth + 1} {
				if s.SeenAtLeast([]byte(k), n) && truth < n {
					t.Fatalf("trial %d: SeenAtLeast(%s, %d) true but exact %d", trial, k, n, truth)
				}
			}
		}
		if s.SeenAtLeast([]byte("never-offered"), 1) {
			t.Fatalf("trial %d: absent key reported seen", trial)
		}
	}
}

// TestSketchDeterministic: identical offer sequences yield identical
// sketches, entry rankings included.
func TestSketchDeterministic(t *testing.T) {
	build := func() *Sketch {
		r := rand.New(rand.NewSource(29))
		s := New(7)
		stream, weights := randomStream(r, 400, 40)
		for i, k := range stream {
			s.Offer([]byte(k), weights[i])
		}
		return s
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Entries(), b.Entries()) {
		t.Fatal("identical streams produced different rankings")
	}
	if a.MinCount() != b.MinCount() || a.Evictions() != b.Evictions() {
		t.Fatal("identical streams produced different aggregates")
	}
}

// TestSketchOfferAllocs pins the hot path: offering tracked keys allocates
// nothing.
func TestSketchOfferAllocs(t *testing.T) {
	s := New(8)
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	for _, k := range keys {
		s.Offer(k, 1)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			s.Offer(k, 2)
			s.Estimate(k)
		}
	}); n != 0 {
		t.Errorf("tracked-key Offer/Estimate allocates %v per run, want 0", n)
	}
}

func BenchmarkSketchOffer(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	s := New(256)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", r.Intn(2048)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(keys[i%len(keys)], 1)
	}
}
