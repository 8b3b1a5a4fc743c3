package bitset

import (
	"math/rand"
	"testing"
)

// checkInvariants asserts the representation invariants every Set must
// maintain, shared by the mutator audit below and the fuzz/property tests:
//
//  1. the word count matches the universe size;
//  2. every padding bit beyond the universe in the last word is zero —
//     the invariant Count, IsEmpty, Equal and Key all depend on (a stray
//     padding bit silently inflates counts and corrupts keys).
func checkInvariants(t *testing.T, label string, s *Set) {
	t.Helper()
	if want := (s.n + wordBits - 1) / wordBits; len(s.words) != want {
		t.Fatalf("%s: %d words for universe %d (want %d)", label, len(s.words), s.n, want)
	}
	if rem := uint(s.n) % wordBits; rem != 0 && len(s.words) > 0 {
		if stray := s.words[len(s.words)-1] &^ (1<<rem - 1); stray != 0 {
			t.Fatalf("%s: padding bits set beyond universe %d (last word %#x)", label, s.n, s.words[len(s.words)-1])
		}
	}
}

// TestMutatorsPreservePaddingInvariant audits every mutator in isolation on
// universes that straddle word boundaries, where the padding bits live.
func TestMutatorsPreservePaddingInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 63, 64, 65, 100, 127, 128, 129, 500} {
		a, b := randomSet(r, n), randomSet(r, n)
		dst := New(n)
		muts := []struct {
			name string
			fn   func(s *Set)
		}{
			{"Fill", func(s *Set) { s.Fill() }},
			{"Clear", func(s *Set) { s.Clear() }},
			{"Complement", func(s *Set) { s.Complement() }},
			{"And", func(s *Set) { s.And(b) }},
			{"Or", func(s *Set) { s.Or(b) }},
			{"AndNot", func(s *Set) { s.AndNot(b) }},
			{"Xor", func(s *Set) { s.Xor(b) }},
			{"CopyFrom", func(s *Set) { s.CopyFrom(b) }},
			{"IntersectInto", func(s *Set) { s.IntersectInto(dst, b) }},
			{"OrInto", func(s *Set) { s.OrInto(dst, b) }},
			{"AndNotInto", func(s *Set) { s.AndNotInto(dst, b) }},
			{"Complement of full", func(s *Set) { s.Fill(); s.Complement() }},
			{"Xor with complement", func(s *Set) { s.Xor(b.Clone().Complement()) }},
		}
		for _, m := range muts {
			s := a.Clone()
			m.fn(s)
			checkInvariants(t, m.name, s)
			checkInvariants(t, m.name+" (dst)", dst)
		}
	}
}

// TestRandomMutatorSequencesPreserveInvariants is the property test: long
// random sequences of every mutator can never leave a set with the wrong
// word count or a stray padding bit.
// A regression in any one mutator's trim handling fails here even if no
// unit test exercises the exact sequence.
func TestRandomMutatorSequencesPreserveInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s := randomSet(r, n)
		other := randomSet(r, n)
		scratch := New(n)
		for step := 0; step < 200; step++ {
			switch op := r.Intn(12); op {
			case 0:
				s.Add(r.Intn(n))
			case 1:
				s.Remove(r.Intn(n))
			case 2:
				s.Fill()
			case 3:
				s.Clear()
			case 4:
				s.Complement()
			case 5:
				s.And(other)
			case 6:
				s.Or(other)
			case 7:
				s.AndNot(other)
			case 8:
				s.Xor(other)
			case 9:
				s.CopyFrom(other)
			case 10:
				s.IntersectInto(scratch, other)
				s, scratch = scratch, s
			case 11:
				other = randomSet(r, n)
			}
			checkInvariants(t, "sequence", s)
		}
	}
}
