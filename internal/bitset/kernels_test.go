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
		// The selector's universe must be the table's column count, and
		// the destination's its row count.
		"IntersectColumns selector":    func() { New(10).IntersectColumns(New(3), NewColumnTable(10, []*Set{s, s})) },
		"IntersectColumns destination": func() { New(20).IntersectColumns(FromIndices(2, 1), NewColumnTable(10, []*Set{s, s})) },
		"NewColumnTable":               func() { NewColumnTable(10, []*Set{s, u}) },
		"IntersectionCounts":           func() { s.IntersectionCounts(make([]int32, 2), []*Set{s, u}) },
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

// TestExtract checks Extract against Intersect/Difference: it writes v
// exactly at s ∩ t, returns its size, and leaves s \ t.
func TestExtract(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		s, u := randomSet(r, n), randomSet(r, n)
		want, rest := Intersect(s, u), Difference(s, u)
		dst := make([]float64, n)
		removed := s.Extract(u, dst, 0.5)
		if removed != want.Count() {
			t.Fatalf("Extract removed %d, want %d", removed, want.Count())
		}
		for i, v := range dst {
			if (v == 0.5) != want.Contains(i) {
				t.Fatalf("Extract wrote %v at %d; s ∩ t = %v", v, i, want)
			}
		}
		if !s.Equal(rest) {
			t.Fatalf("after Extract s = %v, want %v", s, rest)
		}
	}
}

// TestScatterSum checks Scatter and Sum against ForEach: Scatter writes v
// at exactly the members, and Sum adds in ascending order, so its bits
// match a ForEach accumulation.
func TestScatterSum(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		s := randomSet(r, n)
		vals := make([]float64, n)
		s.Scatter(vals, 1)
		for i, v := range vals {
			if (v == 1) != s.Contains(i) {
				t.Fatalf("Scatter wrote %v at %d of %v", v, i, s)
			}
		}
		for i := range vals {
			vals[i] = r.Float64() * float64(r.Intn(1000))
		}
		var want float64
		s.ForEach(func(i int) bool {
			want += vals[i]
			return true
		})
		if got := s.Sum(vals); got != want {
			t.Fatalf("Sum = %v, ForEach accumulation %v", got, want)
		}
	}
}

// TestIntersectionCounts checks the batched kernel against one
// IntersectionCount per row, around the word boundaries.
func TestIntersectionCounts(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 63, 64, 65, 200} {
		s := randomSet(r, n)
		rows := make([]*Set, 1+r.Intn(20))
		for i := range rows {
			rows[i] = randomSet(r, n)
		}
		dst := make([]int32, len(rows)+1)
		dst[len(rows)] = -1
		s.IntersectionCounts(dst, rows)
		for i, row := range rows {
			if want := s.IntersectionCount(row); int(dst[i]) != want {
				t.Fatalf("n=%d row %d: count %d, want %d", n, i, dst[i], want)
			}
		}
		if dst[len(rows)] != -1 {
			t.Fatalf("n=%d: wrote past the rows", n)
		}
	}
}

// intersectColumnsWant is IntersectColumns the slow way: Fill plus one And
// per selected column.
func intersectColumnsWant(m int, sel *Set, cols []*Set) *Set {
	want := New(m)
	want.Fill()
	sel.ForEach(func(j int) bool {
		want.And(cols[j])
		return true
	})
	return want
}

// TestIntersectColumns checks the table kernel against Fill plus one And
// per selected column, for column counts on either side of the byte and
// word boundaries and row universes on either side of the word boundary:
// the empty selector (the whole universe, with the bits past it clear),
// the full selector, every single column, and random selectors, half of
// them with bits in the last, possibly partial, byte.
func TestIntersectColumns(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, m := range []int{1, 63, 64, 65, 130} {
		for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 130} {
			cols := make([]*Set, n)
			for j := range cols {
				cols[j] = randomSet(r, m)
			}
			tab := NewColumnTable(m, cols)
			// Fill leaves the bits past the universe clear, and Equal
			// compares whole words, so this checks the tail too.
			full := New(m)
			full.Fill()
			dst := New(m)
			if got := dst.IntersectColumns(New(n), tab); !got.Equal(full) {
				t.Fatalf("%d×%d: empty selector gave %v, want the whole universe", m, n, got)
			}
			sels := []*Set{New(n)}
			sels[0].Fill()
			for j := 0; j < n; j++ {
				sels = append(sels, FromIndices(n, j))
			}
			lastByte := n &^ 7
			if lastByte == n {
				lastByte = n - 8
			}
			for trial := 0; trial < 20; trial++ {
				sel := New(n)
				for k := r.Intn(12); k >= 0; k-- {
					sel.Add(r.Intn(n))
				}
				if trial%2 == 0 {
					sel.Add(lastByte + r.Intn(n-lastByte))
				}
				sels = append(sels, sel)
			}
			for _, sel := range sels {
				want := intersectColumnsWant(m, sel, cols)
				if got := dst.IntersectColumns(sel, tab); !got.Equal(want) {
					t.Fatalf("%d×%d sel %v: IntersectColumns = %v, want %v", m, n, sel, got, want)
				}
			}
		}
	}
}

// TestWordCountAfter checks Word against Contains and CountAfter against
// Indices, from every start below, inside and past the universe.
func TestWordCountAfter(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 63, 64, 65, 130} {
		for trial := 0; trial < 10; trial++ {
			s := randomSet(r, n)
			for i := 0; i < (n+63)/64*64; i++ {
				if got := s.Word(i/64)&(1<<(i%64)) != 0; got != s.Contains(i) {
					t.Fatalf("n=%d %v: bit %d of Word(%d) is %v", n, s, i%64, i/64, got)
				}
			}
			members := s.Indices()
			for i := -2; i <= n; i++ {
				want := 0
				for _, x := range members {
					if x > i {
						want++
					}
				}
				if got := s.CountAfter(i); got != want {
					t.Fatalf("n=%d %v: CountAfter(%d) = %d, want %d", n, s, i, got, want)
				}
			}
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
