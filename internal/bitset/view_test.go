package bitset

import (
	"math/rand"
	"testing"
)

func TestViewBlockValidates(t *testing.T) {
	if _, err := ViewBlock(make([]uint64, 2), 65, 1); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
	if _, err := ViewBlock(make([]uint64, 4), 65, 2); err != nil {
		t.Fatalf("valid two-set block rejected: %v", err)
	}
	cases := map[string]struct {
		words    []uint64
		n, count int
	}{
		"negative universe":          {nil, -1, 1},
		"too few words":              {make([]uint64, 1), 65, 1},
		"too many words":             {make([]uint64, 2), 64, 1},
		"stray padding bit":          {[]uint64{0, 1 << 5}, 68, 1},
		"negative count":             {nil, 64, -1},
		"stray padding bit in set 2": {[]uint64{0, 1 << 3, 0, 1 << 5}, 68, 2},
	}
	for name, c := range cases {
		if _, err := ViewBlock(c.words, c.n, c.count); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestViewSetIsReadOnlyAlias(t *testing.T) {
	src := FromIndices(130, 0, 64, 129)
	words := make([]uint64, 3)
	copy(words, src.words)
	block, err := ViewBlock(words, 130, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := block[0]
	if !s.Frozen() {
		t.Fatal("view set is not frozen")
	}
	if !s.Equal(src) {
		t.Fatal("view set differs from source")
	}
	if s.Count() != 3 || !s.Contains(64) || s.Contains(63) || s.Len() != 130 {
		t.Fatal("view read accessors disagree with contents")
	}
	// Reads that only use the view as an operand must work...
	if got := src.IntersectionCount(s); got != 3 {
		t.Fatalf("IntersectionCount via view = %d", got)
	}
	dst := New(130)
	s.IntersectInto(dst, src) // dst mutable, sources frozen: fine
	if !dst.Equal(src) {
		t.Fatal("IntersectInto with frozen sources wrong")
	}
	// ...while every mutation of the frozen set must panic.
	mutations := map[string]func(){
		"Add":           func() { s.Add(1) },
		"Remove":        func() { s.Remove(0) },
		"Clear":         func() { s.Clear() },
		"Fill":          func() { s.Fill() },
		"And":           func() { s.And(src) },
		"Or":            func() { s.Or(src) },
		"AndNot":        func() { s.AndNot(src) },
		"Xor":           func() { s.Xor(src) },
		"Complement":    func() { s.Complement() },
		"CopyFrom":      func() { s.CopyFrom(src) },
		"IntersectInto": func() { src.IntersectInto(s, src) },
		"OrInto":        func() { src.OrInto(s, src) },
		"AndNotInto":    func() { src.AndNotInto(s, src) },
		"Unmarshal":     func() { _ = s.UnmarshalBinary(nil) },
	}
	for name, fn := range mutations {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen view did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Clone of a frozen set is an ordinary mutable set.
	c := s.Clone()
	if c.Frozen() {
		t.Fatal("clone of a view is frozen")
	}
	c.Add(1)
}

func TestAliasWordsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	s := randomSet(r, 777)
	var buf []byte
	buf = s.AppendKey(buf)
	words, ok := AliasWords(buf)
	if ok {
		got, err := ViewBlock(words, 777, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Equal(s) {
			t.Fatal("aliased view differs from source set")
		}
	}
	// The copying fallback must always work and agree.
	copied, err := CopyWords(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ViewBlock(copied, 777, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(s) {
		t.Fatal("copied view differs from source set")
	}
	if _, err := CopyWords(buf[:len(buf)-3]); err == nil {
		t.Fatal("CopyWords accepted a ragged region")
	}
	if _, ok := AliasWords(buf[:len(buf)-3]); ok {
		t.Fatal("AliasWords accepted a ragged region")
	}
	if w, ok := AliasWords(nil); !ok || len(w) != 0 {
		t.Fatal("AliasWords on empty region should be ok and empty")
	}
}

func TestAliasWordsMisaligned(t *testing.T) {
	// Of the 8 possible byte offsets into an allocation, exactly one is
	// 8-aligned; the other seven must be refused (on a big-endian host all
	// eight are, which the ≤ 1 bound also accepts).
	backing := make([]byte, 24)
	aligned := 0
	for off := 0; off < 8; off++ {
		if _, ok := AliasWords(backing[off : off+16]); ok {
			aligned++
		}
	}
	if aligned > 1 {
		t.Fatalf("AliasWords accepted %d of 8 offsets; at most one can be aligned", aligned)
	}
}
