package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if got := s.Count(); got != 0 {
		t.Errorf("Count() = %d, want 0", got)
	}
	if !s.IsEmpty() {
		t.Error("new set should be empty")
	}
	if s.Len() != 100 {
		t.Errorf("Len() = %d, want 100", s.Len())
	}
}

func TestNewZeroUniverse(t *testing.T) {
	s := New(0)
	if !s.IsEmpty() || s.Count() != 0 || s.Len() != 0 {
		t.Error("zero-universe set should be empty")
	}
	if s.Min() != -1 || s.Max() != -1 {
		t.Error("Min/Max of empty set should be -1")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // spans 3 words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Errorf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Errorf("Count() = %d, want 7", got)
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if got := s.Count(); got != 7 {
		t.Errorf("Count() = %d after double Remove, want 7", got)
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Error("Contains outside the universe should be false, not panic")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	s := New(10)
	defer func() {
		if recover() == nil {
			t.Error("Add(10) should panic for universe [0,10)")
		}
	}()
	s.Add(10)
}

func TestFromIndices(t *testing.T) {
	s := FromIndices(20, 3, 7, 19)
	if got := s.Indices(); !reflect.DeepEqual(got, []int{3, 7, 19}) {
		t.Errorf("Indices() = %v, want [3 7 19]", got)
	}
}

func TestFillAndComplement(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		s := New(n)
		s.Fill()
		if got := s.Count(); got != n {
			t.Errorf("n=%d: Fill then Count = %d, want %d", n, got, n)
		}
		s.Complement()
		if !s.IsEmpty() {
			t.Errorf("n=%d: complement of full set should be empty", n)
		}
		s.Complement()
		if got := s.Count(); got != n {
			t.Errorf("n=%d: complement of empty set should be full, got %d", n, got)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := FromIndices(10, 1, 2, 3, 4)
	b := FromIndices(10, 3, 4, 5, 6)

	if got := Intersect(a, b).Indices(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("Intersect = %v, want [3 4]", got)
	}
	if got := Union(a, b).Indices(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Errorf("Union = %v, want [1..6]", got)
	}
	if got := Difference(a, b).Indices(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Difference = %v, want [1 2]", got)
	}
	x := a.Clone().Xor(b)
	if got := x.Indices(); !reflect.DeepEqual(got, []int{1, 2, 5, 6}) {
		t.Errorf("Xor = %v, want [1 2 5 6]", got)
	}
	// Originals untouched by the allocating helpers.
	if got := a.Indices(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("a mutated: %v", got)
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And with mismatched universes should panic")
		}
	}()
	New(10).And(New(11))
}

func TestSubsetRelations(t *testing.T) {
	a := FromIndices(10, 1, 2)
	b := FromIndices(10, 1, 2, 3)
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.SubsetOf(a) {
		t.Error("a should be subset of itself")
	}
	if !a.ProperSubsetOf(b) {
		t.Error("a should be a proper subset of b")
	}
	if a.ProperSubsetOf(a) {
		t.Error("a is not a proper subset of itself")
	}
	if !a.Intersects(b) {
		t.Error("a and b intersect")
	}
	if a.Intersects(FromIndices(10, 5, 6)) {
		t.Error("disjoint sets should not intersect")
	}
}

func TestCounts(t *testing.T) {
	a := FromIndices(200, 0, 64, 65, 128, 199)
	b := FromIndices(200, 64, 128, 150)
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if got := a.DifferenceCount(b); got != 3 {
		t.Errorf("DifferenceCount = %d, want 3", got)
	}
}

func TestMinMaxNextAfter(t *testing.T) {
	s := FromIndices(200, 5, 64, 190)
	if got := s.Min(); got != 5 {
		t.Errorf("Min = %d, want 5", got)
	}
	if got := s.Max(); got != 190 {
		t.Errorf("Max = %d, want 190", got)
	}
	if got := s.NextAfter(-1); got != 5 {
		t.Errorf("NextAfter(-1) = %d, want 5", got)
	}
	if got := s.NextAfter(5); got != 64 {
		t.Errorf("NextAfter(5) = %d, want 64", got)
	}
	if got := s.NextAfter(64); got != 190 {
		t.Errorf("NextAfter(64) = %d, want 190", got)
	}
	if got := s.NextAfter(190); got != -1 {
		t.Errorf("NextAfter(190) = %d, want -1", got)
	}
	if got := s.IntersectMinDifference(New(200), s, FromIndices(200, 5, 7)); got != 64 {
		t.Errorf("IntersectMinDifference = %d, want 64", got)
	}
	if got := s.IntersectMinDifference(New(200), s, FromIndices(200, 5, 64, 190)); got != -1 {
		t.Errorf("IntersectMinDifference of a subset = %d, want -1", got)
	}
}

// TestQuickMinDifference checks IntersectMinDifference against the
// smallest element of the difference, with dst fresh and aliasing s: dst
// must hold s ∩ t either way.
func TestQuickMinDifference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b, u := randomSet(r, n), randomSet(r, n), randomSet(r, n)
		both := a.Clone().And(b)
		dst := New(n)
		if a.IntersectMinDifference(dst, b, u) != Difference(both, u).Min() || !dst.Equal(both) {
			return false
		}
		if a.IntersectMinDifference(dst, b, Union(both, u)) != -1 {
			return false
		}
		alias := a.Clone()
		return alias.IntersectMinDifference(alias, b, u) == Difference(both, u).Min() && alias.Equal(both)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectIntoAny checks IntersectIntoAny against IntersectInto
// and IsEmpty.
func TestQuickIntersectIntoAny(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		want := a.Clone().And(b)
		dst := New(n)
		return a.IntersectIntoAny(dst, b) != want.IsEmpty() && dst.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(100, 1, 2, 3, 4, 5)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if !reflect.DeepEqual(seen, []int{1, 2, 3}) {
		t.Errorf("early stop saw %v, want [1 2 3]", seen)
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(10, 1, 5, 9).String(); got != "{1, 5, 9}" {
		t.Errorf("String() = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("String() = %q", got)
	}
}

func TestKeyDistinguishesSets(t *testing.T) {
	a := FromIndices(128, 1, 64)
	b := FromIndices(128, 1, 65)
	if a.Key() == b.Key() {
		t.Error("different sets must have different keys")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("equal sets must have equal keys")
	}
}

func TestMarshalBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := randomSet(r, n)
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Set
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(s) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	var s Set
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil data should error")
	}
	if err := s.UnmarshalBinary(make([]byte, 12)); err == nil {
		t.Error("non-multiple-of-8 payload should error")
	}
	// Word count inconsistent with declared universe.
	data, _ := FromIndices(100, 5).MarshalBinary()
	if err := s.UnmarshalBinary(data[:8]); err == nil {
		t.Error("truncated words should error")
	}
}

func TestUnmarshalBinaryRejectsPaddingBits(t *testing.T) {
	// Universe 100 occupies two words with 28 padding bits in the second;
	// setting one of them means the data is corrupt and must be rejected,
	// not silently masked away.
	orig := FromIndices(100, 5, 64, 99)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[8+8+(100%64)/8] |= 1 << (100 % 8) // bit 100: first bit past the universe
	var s Set
	if err := s.UnmarshalBinary(corrupt); err == nil {
		t.Fatal("padding bit set beyond universe should error")
	}
	// The clean payload still round-trips.
	if err := s.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(orig) {
		t.Error("round trip mismatch after corruption check")
	}
	// A universe that exactly fills its words has no padding to check.
	full := randomSet(rand.New(rand.NewSource(3)), 128)
	data, err = full.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(full) {
		t.Error("word-aligned round trip mismatch")
	}
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickDeMorgan(t *testing.T) {
	// complement(a ∪ b) == complement(a) ∩ complement(b)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		left := Union(a, b).Complement()
		right := Intersect(a.Clone().Complement(), b.Clone().Complement())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInclusionExclusion(t *testing.T) {
	// |a| + |b| == |a ∪ b| + |a ∩ b|
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Count()+b.Count() == Union(a, b).Count()+Intersect(a, b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDifferenceIdentity(t *testing.T) {
	// a \ b == a ∩ complement(b), and counts agree with DifferenceCount.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		d := Difference(a, b)
		if !d.Equal(Intersect(a, b.Clone().Complement())) {
			return false
		}
		return d.Count() == a.DifferenceCount(b) &&
			Intersect(a, b).Count() == a.IntersectionCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randomSet(r, n)
		return a.Equal(FromIndices(n, a.Indices()...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetAfterIntersection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		i := Intersect(a, b)
		return i.SubsetOf(a) && i.SubsetOf(b) && a.SubsetOf(Union(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNextAfterWalksIndices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randomSet(r, n)
		var walked []int
		for i := a.Min(); i != -1; i = a.NextAfter(i) {
			walked = append(walked, i)
		}
		return reflect.DeepEqual(walked, a.Indices()) || (walked == nil && a.Count() == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersectionCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 4096), randomSet(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectionCount(y)
	}
}
