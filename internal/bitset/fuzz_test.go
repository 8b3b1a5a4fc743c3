package bitset

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzUnmarshalBinary asserts the binary decoder never panics on arbitrary
// bytes and rejects anything that cannot round-trip: accepted data must
// re-marshal byte-identically and satisfy the set invariants.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, s := range []*Set{
		New(0),
		FromIndices(5, 0, 2),
		FromIndices(64, 0, 63),
		FromIndices(65, 64),
		FromIndices(200, 1, 100, 199),
	} {
		b, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(nil))
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, 16)) // universe 0 with one spurious word
	// Boundary universe sizes: values whose int conversion wraps on 32-bit
	// platforms (2³¹, 2³²+1), the plain-int overflow edges (2⁶³-1, 2⁶³,
	// 2⁶⁴-1), and the largest n for which n+wordBits-1 used to overflow.
	// Each is paired with a word count a wrapped/overflowed check might
	// accept; the decoder must reject all of them in uint64 space.
	boundary := func(n uint64, words int) []byte {
		b := make([]byte, 8+8*words)
		putUint64(b, n)
		return b
	}
	f.Add(boundary(1<<31, 1))           // int32 wraps negative
	f.Add(boundary(1<<32+1, 1))         // int32 wraps to 1
	f.Add(boundary(1<<63-1, 2))         // maxInt64: n+63 overflows int64
	f.Add(boundary(1<<63, 1))           // int64 wraps negative
	f.Add(boundary(^uint64(0), 0))      // 2⁶⁴-1: n+63 overflows uint64 too
	f.Add(boundary(^uint64(0)-62, 0))   // exactly wraps (n+63 == 0)
	f.Add(boundary(uint64(1)<<31-1, 1)) // maxInt32 but far too few words
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Set
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted set does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("re-marshal differs from accepted input:\n in: %x\nout: %x", data, out)
		}
		if c := s.Count(); c > s.Len() {
			t.Fatalf("count %d exceeds universe %d", c, s.Len())
		}
		if m := s.Max(); m >= s.Len() {
			t.Fatalf("max member %d outside universe %d", m, s.Len())
		}
		checkInvariants(t, "fuzz", &s)
	})
}

// FuzzIntersectColumns checks the table kernel against Fill plus one And
// per selected column. The fuzzer picks the row and column counts and the
// selector's bytes (bit j of sel selects column j, and bytes past the
// column count are ignored); seed draws the columns, dense enough that the
// intersections of a dozen columns are seldom empty.
func FuzzIntersectColumns(f *testing.F) {
	f.Add(uint8(101), uint8(40), int64(1), []byte{0xa5, 0x0f, 0x00, 0x81, 0xff})
	f.Add(uint8(64), uint8(9), int64(2), []byte{0x00, 0x01})
	f.Add(uint8(1), uint8(1), int64(3), []byte{0x01})
	f.Add(uint8(130), uint8(130), int64(4), bytes.Repeat([]byte{0xff}, 17))
	f.Add(uint8(65), uint8(0), int64(5), []byte(nil))
	f.Add(uint8(101), uint8(72), int64(6), []byte{0, 0x10, 0, 0, 0, 0, 0, 0x81, 0x02})
	f.Fuzz(func(t *testing.T, rows, ncols uint8, seed int64, sel []byte) {
		m, n := int(rows), int(ncols)
		r := rand.New(rand.NewSource(seed))
		cols := make([]*Set, n)
		for j := range cols {
			cols[j] = New(m)
			for wi := range cols[j].words {
				cols[j].words[wi] = r.Uint64() | r.Uint64() | r.Uint64()
			}
			cols[j].trim()
		}
		s := New(n)
		for j := 0; j < n && j/8 < len(sel); j++ {
			if sel[j/8]&(1<<(j%8)) != 0 {
				s.Add(j)
			}
		}
		want := intersectColumnsWant(m, s, cols)
		got := New(m)
		got.Complement() // the kernel must overwrite, not AND into, s
		if got.IntersectColumns(s, NewColumnTable(m, cols)); !got.Equal(want) {
			t.Fatalf("%d rows × %d columns, sel %v: got %v, want %v", m, n, s, got, want)
		}
		checkInvariants(t, "IntersectColumns", got)
	})
}
