package bitset

import (
	"math/rand"
	"testing"
)

// TestDestinationKernels checks the Into/CopyFrom kernels against their
// allocating counterparts on random sets, including aliased destinations.
func TestDestinationKernels(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		s, u := randomSet(r, n), randomSet(r, n)
		dst := New(n)

		if got, want := s.IntersectInto(dst, u), Intersect(s, u); !got.Equal(want) {
			t.Fatalf("IntersectInto = %v, want %v", got, want)
		}
		if got, want := s.OrInto(dst, u), Union(s, u); !got.Equal(want) {
			t.Fatalf("OrInto = %v, want %v", got, want)
		}
		if got, want := s.AndNotInto(dst, u), Difference(s, u); !got.Equal(want) {
			t.Fatalf("AndNotInto = %v, want %v", got, want)
		}

		// Aliased destination: dst == s must behave like the in-place op.
		alias := s.Clone()
		if got, want := alias.IntersectInto(alias, u), Intersect(s, u); !got.Equal(want) {
			t.Fatalf("aliased IntersectInto = %v, want %v", got, want)
		}
		alias = s.Clone()
		if got, want := alias.OrInto(alias, u), Union(s, u); !got.Equal(want) {
			t.Fatalf("aliased OrInto = %v, want %v", got, want)
		}
		alias = s.Clone()
		if got, want := alias.AndNotInto(alias, u), Difference(s, u); !got.Equal(want) {
			t.Fatalf("aliased AndNotInto = %v, want %v", got, want)
		}

		dst.CopyFrom(s)
		if !dst.Equal(s) {
			t.Fatalf("CopyFrom = %v, want %v", dst, s)
		}
		// CopyFrom is a copy, not a share: mutating dst leaves s alone.
		snapshot := s.Clone()
		dst.Complement()
		if !s.Equal(snapshot) {
			t.Fatal("CopyFrom shared storage with its source")
		}
	}
}

func TestKernelsUniverseMismatchPanics(t *testing.T) {
	s, u := New(10), New(20)
	for name, fn := range map[string]func(){
		"IntersectInto": func() { s.IntersectInto(New(10), u) },
		"OrInto":        func() { s.OrInto(New(20), u) },
		"AndNotInto":    func() { New(20).AndNotInto(s, New(20)) },
		"CopyFrom":      func() { s.CopyFrom(u) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: universe mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAppendKeyMatchesKey pins AppendKey and Key to the same bytes, with
// AppendKey honoring existing dst contents.
func TestAppendKeyMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		s := randomSet(r, 1+r.Intn(300))
		if got := string(s.AppendKey(nil)); got != s.Key() {
			t.Fatalf("AppendKey bytes differ from Key for %v", s)
		}
		withPrefix := s.AppendKey([]byte("pfx"))
		if string(withPrefix) != "pfx"+s.Key() {
			t.Fatalf("AppendKey did not append after existing contents")
		}
	}
}

// TestAppendKeyNoAllocWithCapacity pins the zero-allocation contract the
// miner's states-map keying relies on.
func TestAppendKeyNoAllocWithCapacity(t *testing.T) {
	s := FromIndices(200, 3, 64, 150)
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		buf = s.AppendKey(buf[:0])
	}); n != 0 {
		t.Errorf("AppendKey with spare capacity allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = s.Key()
	}); n > 1 {
		t.Errorf("Key allocates %v times per run, want at most 1", n)
	}
}

// TestExtract checks Extract against Intersect/Difference: it reports
// exactly s ∩ t in ascending order, returns its size, and leaves s \ t.
func TestExtract(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		s, u := randomSet(r, n), randomSet(r, n)
		want, rest := Intersect(s, u).Indices(), Difference(s, u)
		var got []int
		removed := s.Extract(u, func(i int) { got = append(got, i) })
		if removed != len(want) || len(got) != len(want) {
			t.Fatalf("Extract removed %d, reported %d, want %d", removed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("Extract reported %v, want %v", got, want)
			}
		}
		if !s.Equal(rest) {
			t.Fatalf("after Extract s = %v, want %v", s, rest)
		}
	}
}

// TestTranspose checks Transpose element by element, including an empty
// row list and rows that share storage in the result.
func TestTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		m, n := r.Intn(140), 1+r.Intn(140)
		rows := make([]*Set, m)
		for i := range rows {
			rows[i] = randomSet(r, n)
		}
		cols := Transpose(rows, n)
		if len(cols) != n {
			t.Fatalf("Transpose returned %d sets, want %d", len(cols), n)
		}
		for j, col := range cols {
			if col.Len() != m {
				t.Fatalf("column %d has universe %d, want %d", j, col.Len(), m)
			}
			for i := range rows {
				if col.Contains(i) != rows[i].Contains(j) {
					t.Fatalf("cols[%d].Contains(%d) = %v, rows disagree", j, i, col.Contains(i))
				}
			}
		}
		// Result sets are independent despite the shared slab.
		if n > 1 && m > 0 {
			cols[0].Fill()
			for i := range rows {
				if cols[1].Contains(i) != rows[i].Contains(1) {
					t.Fatal("filling one transposed set changed its neighbour")
				}
			}
		}
	}
}
