package sketch

import (
	"testing"
)

// FuzzSketch drives a sketch with an arbitrary byte-encoded op sequence and
// checks every space-saving invariant against an exact counter. Each op is
// three bytes: opcode (offer / estimate), key id, weight.
func FuzzSketch(f *testing.F) {
	f.Add(3, []byte{0, 1, 2, 0, 1, 2, 0, 2, 1, 1, 1, 0})
	f.Add(1, []byte{0, 5, 255, 0, 6, 1, 0, 7, 1, 1, 5, 0})
	f.Add(8, []byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 1, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, width int, ops []byte) {
		if width < 1 || width > 64 {
			width %= 64
			if width < 1 {
				width = 1
			}
		}
		s := New(width)
		exact := map[string]uint64{}
		var key [1]byte
		// check asserts the estimate sandwich for one key, offered or not,
		// and that a tracked entry's bound stays within the sketch-wide bound.
		check := func(kid byte) {
			key[0] = kid
			truth := exact[string(key[:])]
			est, maxErr, tracked := s.Estimate(key[:])
			if est < truth {
				t.Fatalf("key %d: estimate %d < exact %d", kid, est, truth)
			}
			if est-truth > maxErr {
				t.Fatalf("key %d: overcount %d exceeds claimed bound %d", kid, est-truth, maxErr)
			}
			if tracked && maxErr > s.ErrorBound() {
				t.Fatalf("key %d: maxError %d exceeds sketch bound %d", kid, maxErr, s.ErrorBound())
			}
			if s.SeenAtLeast(key[:], truth+1) {
				t.Fatalf("key %d: SeenAtLeast certifies more than exact %d", kid, truth)
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op, kid, w := ops[i]%2, ops[i+1]%32, uint64(ops[i+2])+1
			switch op {
			case 0: // offer
				key[0] = kid
				s.Offer(key[:], w)
				exact[string(key[:])] += w
			case 1: // estimate mid-stream
				check(kid)
			}

			if s.Len() > s.Width() {
				t.Fatalf("op %d: %d entries exceed width %d", i, s.Len(), s.Width())
			}
			var total uint64
			for _, c := range exact {
				total += c
			}
			if s.N() != total {
				t.Fatalf("op %d: N=%d, exact total %d", i, s.N(), total)
			}
		}
		// Final sweep: every key id the ops can name, plus one they cannot.
		for kid := 0; kid < 33; kid++ {
			check(byte(kid))
		}
	})
}
