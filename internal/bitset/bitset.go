// Package bitset provides a dense, fixed-universe bitset used throughout the
// BSTC codebase to represent gene sets and sample sets.
//
// All mining algorithms in this repository (BST construction, BSTCE
// evaluation, Top-k row enumeration, lower-bound BFS) reduce to intersecting,
// unioning and counting subsets of a small fixed universe, so a flat
// []uint64-backed set is the natural substrate. The zero value of Set is an
// empty set over an empty universe; use New to create a set with capacity.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-universe bitset over the elements [0, Len()).
type Set struct {
	words []uint64
	n     int
	// frozen marks read-only sets whose words alias externally owned (and
	// possibly write-protected) memory, e.g. a mmapped artifact region (see
	// ViewBlock); mutators panic on them instead of corrupting shared pages.
	frozen bool
}

// New returns an empty Set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a Set over [0, n) containing exactly the given indices.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the universe size (not the number of elements; see Count).
func (s *Set) Len() int { return s.n }

// Add inserts element i. It panics if i is outside the universe.
func (s *Set) Add(i int) {
	s.guardWrite()
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes element i. It panics if i is outside the universe.
func (s *Set) Remove(i int) {
	s.guardWrite()
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether element i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of universe [0,%d)", i, s.n))
	}
}

// guardWrite panics when s is a frozen view: its words alias externally
// owned memory (often a read-only mapping, where a store would fault with
// SIGSEGV anyway), so every mutator calls this first to fail with a clear
// message instead.
func (s *Set) guardWrite() {
	if s.frozen {
		panic("bitset: write to read-only view")
	}
}

// Frozen reports whether s is a read-only view (see ViewBlock); mutators
// panic on frozen sets.
func (s *Set) Frozen() bool { return s.frozen }

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Clear removes every element, keeping the universe size.
func (s *Set) Clear() {
	s.guardWrite()
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every element of the universe.
func (s *Set) Fill() {
	s.guardWrite()
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits beyond the universe in the last word.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

func (s *Set) sameUniverse(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, t.n))
	}
}

// And sets s to the intersection s ∩ t and returns s.
func (s *Set) And(t *Set) *Set {
	s.guardWrite()
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
	return s
}

// Or sets s to the union s ∪ t and returns s.
func (s *Set) Or(t *Set) *Set {
	s.guardWrite()
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
	return s
}

// AndNot sets s to the difference s \ t and returns s.
func (s *Set) AndNot(t *Set) *Set {
	s.guardWrite()
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
	return s
}

// Xor sets s to the symmetric difference s △ t and returns s.
func (s *Set) Xor(t *Set) *Set {
	s.guardWrite()
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] ^= t.words[i]
	}
	return s
}

// Complement sets s to universe \ s and returns s.
func (s *Set) Complement() *Set {
	s.guardWrite()
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
	return s
}

// CopyFrom sets s to the contents of t. The two sets must share a universe;
// unlike Clone, no memory is allocated.
func (s *Set) CopyFrom(t *Set) {
	s.guardWrite()
	s.sameUniverse(t)
	copy(s.words, t.words)
}

// IntersectInto sets dst to s ∩ t and returns dst. All three sets must share
// a universe; dst may alias s or t. Unlike Intersect, no memory is allocated,
// which is what keeps the miner's per-node cost flat (see internal/carminer).
func (s *Set) IntersectInto(dst, t *Set) *Set {
	dst.guardWrite()
	s.sameUniverse(t)
	s.sameUniverse(dst)
	for i := range dst.words {
		dst.words[i] = s.words[i] & t.words[i]
	}
	return dst
}

// IntersectIntoAny sets dst to s ∩ t and reports whether it is non-empty:
// IntersectInto and IsEmpty in one pass over the words. All three sets must
// share a universe; dst may alias s or t.
func (s *Set) IntersectIntoAny(dst, t *Set) bool {
	dst.guardWrite()
	s.sameUniverse(t)
	s.sameUniverse(dst)
	sw := s.words
	tw, dw := t.words[:len(sw)], dst.words[:len(sw)]
	var nz uint64
	for i, w := range sw {
		w &= tw[i]
		dw[i] = w
		nz |= w
	}
	return nz != 0
}

// IntersectMinDifference sets dst to s ∩ t and returns the smallest
// element of dst \ u, or -1 if dst ⊆ u, in one pass over the words. All
// four sets must share a universe; dst may alias s or t, but not u.
// Top-k's canonical-parent test is one call (internal/carminer).
func (s *Set) IntersectMinDifference(dst, t, u *Set) int {
	dst.guardWrite()
	s.sameUniverse(t)
	s.sameUniverse(dst)
	s.sameUniverse(u)
	sw := s.words
	tw, uw, dw := t.words[:len(sw)], u.words[:len(sw)], dst.words[:len(sw)]
	for i, w := range sw {
		w &= tw[i]
		dw[i] = w
		if d := w &^ uw[i]; d != 0 {
			for j := i + 1; j < len(sw); j++ {
				dw[j] = sw[j] & tw[j]
			}
			return i*wordBits + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// OrInto sets dst to s ∪ t and returns dst. All three sets must share a
// universe; dst may alias s or t.
func (s *Set) OrInto(dst, t *Set) *Set {
	dst.guardWrite()
	s.sameUniverse(t)
	s.sameUniverse(dst)
	for i := range dst.words {
		dst.words[i] = s.words[i] | t.words[i]
	}
	return dst
}

// AndNotInto sets dst to s \ t and returns dst. All three sets must share a
// universe; dst may alias s or t.
func (s *Set) AndNotInto(dst, t *Set) *Set {
	dst.guardWrite()
	s.sameUniverse(t)
	s.sameUniverse(dst)
	for i := range dst.words {
		dst.words[i] = s.words[i] &^ t.words[i]
	}
	return dst
}

// Extract removes s ∩ t from s, setting dst[i] = v for each removed
// element i, and returns how many it removed. One call is a single
// word-parallel pass: it is the "resolve, then clear" step of BSTCE's column
// sweep (internal/core), where s holds the still-unresolved genes and dst
// their cell values. dst must cover s's universe.
func (s *Set) Extract(t *Set, dst []float64, v float64) int {
	s.guardWrite()
	s.sameUniverse(t)
	dst = dst[:s.n]
	n := 0
	sw, tw := s.words, t.words[:len(s.words)] // one bounds check, not one per word
	for wi, x := range sw {
		w := x & tw[wi]
		if w == 0 {
			continue
		}
		sw[wi] = x &^ w
		n += bits.OnesCount64(w)
		base := wi * wordBits
		for ; w != 0; w &= w - 1 {
			dst[base+bits.TrailingZeros64(w)] = v
		}
	}
	return n
}

// Scatter sets dst[i] = v for every element i of s. dst must cover s's
// universe.
func (s *Set) Scatter(dst []float64, v float64) {
	dst = dst[:s.n]
	for wi, w := range s.words {
		base := wi * wordBits
		for ; w != 0; w &= w - 1 {
			dst[base+bits.TrailingZeros64(w)] = v
		}
	}
}

// Sum returns the sum of vals[i] over the elements i of s, added in
// ascending order of i, so the result is the same float64 bits as a
// ForEach loop accumulating from 0. vals must cover s's universe.
func (s *Set) Sum(vals []float64) float64 {
	vals = vals[:s.n]
	var sum float64
	for wi, w := range s.words {
		base := wi * wordBits
		for ; w != 0; w &= w - 1 {
			sum += vals[base+bits.TrailingZeros64(w)]
		}
	}
	return sum
}

// IntersectionCounts sets dst[i] = |s ∩ rows[i]| for every row, the batched
// form of IntersectionCount: one pass over s's words per row, without
// allocating. Every row must share s's universe and dst must have a slot
// per row. BSTCE counts a query's column against every training row of the
// other classes with one call (internal/core).
func (s *Set) IntersectionCounts(dst []int32, rows []*Set) {
	dst = dst[:len(rows)]
	sw := s.words
	for i, r := range rows {
		s.sameUniverse(r)
		rw := r.words[:len(sw)]
		c := 0
		for j, w := range sw {
			c += bits.OnesCount64(w & rw[j])
		}
		dst[i] = int32(c)
	}
}

// ColumnTable is a byte-indexed table of a bit matrix's columns, built
// once so that intersecting many column subsets is cheap: the Method of
// Four Russians (Arlazarov et al., 1970) applied to column intersection.
// Entry (b, v) holds the AND of columns 8b+i over every bit i set in the
// byte v, and entry (b, 0) is every row. Each entry is built with one AND,
// from the entry of v without its highest bit, and the table takes
// 256·⌈cols/8⌉·⌈rows/64⌉ words.
type ColumnTable struct {
	cols, rows int
	// words holds entry (b, v) at [(256b+v)·w, (256b+v+1)·w) for
	// w = ⌈rows/64⌉.
	words []uint64
}

// NewColumnTable returns the table of cols, each a set over [0, rows).
func NewColumnTable(rows int, cols []*Set) *ColumnTable {
	if rows < 0 {
		panic("bitset: negative universe size")
	}
	nw := (rows + wordBits - 1) / wordBits
	t := &ColumnTable{cols: len(cols), rows: rows,
		words: make([]uint64, 256*((len(cols)+7)/8)*nw)}
	for j, c := range cols {
		if c.n != rows {
			panic(fmt.Sprintf("bitset: universe mismatch %d vs %d table rows", c.n, rows))
		}
		b, i := j/8, j%8
		block := t.words[256*b*nw : 256*(b+1)*nw]
		if i == 0 {
			all := Set{words: block[:nw], n: rows}
			all.Fill()
		}
		// Entries (b, v) for 2^i ≤ v < 2^(i+1) are entries (b, v−2^i),
		// all built already, AND column j. Entries naming a column past
		// the last stay zero: a selector has no bits beyond its universe,
		// so none is looked up.
		dst := block[nw<<i : nw<<(i+1)]
		src := block[:len(dst)]
		for w, x := range c.words {
			for k := w; k < len(dst); k += nw {
				dst[k] = src[k] & x
			}
		}
	}
	return t
}

// IntersectColumns sets s to the intersection of the table's columns j
// over every j in sel and returns s; an empty sel leaves s the whole
// universe. With the table built from a bit matrix's columns (see
// Transpose), that is the matrix rows holding every column sel selects.
// s's universe must be the table's row count and sel's its column count.
// It is one word-AND per non-zero byte of sel and word of s, without
// allocating: the Top-k miner's closure (internal/carminer).
func (s *Set) IntersectColumns(sel *Set, t *ColumnTable) *Set {
	s.guardWrite()
	if sel.n != t.cols {
		panic(fmt.Sprintf("bitset: selector universe %d vs %d columns", sel.n, t.cols))
	}
	if s.n != t.rows {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d table rows", s.n, t.rows))
	}
	dst, tw := s.words, t.words
	nw := len(dst)
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	for wi, w := range sel.words {
		block := 8 * 256 * nw * wi // entry (8wi, 0)
		for w != 0 {
			// The lowest non-zero byte of w starts at bit shift: it
			// selects entry (8wi + shift/8, that byte).
			shift := uint(bits.TrailingZeros64(w)) &^ 7
			e := tw[block+(32*int(shift)+int(w>>shift&0xff))*nw:][:nw]
			w &^= 0xff << shift
			for i, x := range e {
				dst[i] &= x
			}
		}
	}
	s.trim()
	return s
}

// Transpose returns the transpose of the bit matrix whose rows are sets,
// each over [0, n): out[j] is a set over [0, len(sets)) holding i exactly
// when sets[i] contains j. The n result sets share one word slab (see
// NewBlock), so the whole transpose costs three allocations regardless of n.
func Transpose(sets []*Set, n int) []*Set {
	out, slab := newBlock(len(sets), n)
	nw := (len(sets) + wordBits - 1) / wordBits
	for i, s := range sets {
		if s.n != n {
			panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, n))
		}
		word, bit := i/wordBits, uint64(1)<<(uint(i)%wordBits)
		s.ForEach(func(j int) bool {
			slab[j*nw+word] |= bit
			return true
		})
	}
	return out
}

// NewBlock returns count empty sets over [0, n) carved out of one word
// slab: three allocations however many sets there are. Each set's words
// are capacity-limited to its own stripe, so the sets stay independent.
func NewBlock(n, count int) []*Set {
	out, _ := newBlock(n, count)
	return out
}

// newBlock is NewBlock, also returning the slab: set i's words are
// slab[i·w : (i+1)·w] for w = ⌈n/64⌉.
func newBlock(n, count int) ([]*Set, []uint64) {
	if n < 0 || count < 0 {
		panic("bitset: negative universe size")
	}
	nw := (n + wordBits - 1) / wordBits
	slab := make([]uint64, count*nw)
	sets := make([]Set, count)
	out := make([]*Set, count)
	for i := range out {
		sets[i] = Set{words: slab[i*nw : (i+1)*nw : (i+1)*nw], n: n}
		out[i] = &sets[i]
	}
	return out, slab
}

// Intersect returns a new set holding s ∩ t.
func Intersect(s, t *Set) *Set { return s.Clone().And(t) }

// Union returns a new set holding s ∪ t.
func Union(s, t *Set) *Set { return s.Clone().Or(t) }

// Difference returns a new set holding s \ t.
func Difference(s, t *Set) *Set { return s.Clone().AndNot(t) }

// Equal reports whether s and t contain exactly the same elements over the
// same universe.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊂ t strictly.
func (s *Set) ProperSubsetOf(t *Set) bool {
	return s.SubsetOf(t) && !s.Equal(t)
}

// Intersects reports whether s ∩ t is non-empty.
func (s *Set) Intersects(t *Set) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s *Set) IntersectionCount(t *Set) int {
	s.sameUniverse(t)
	c := 0
	tw := t.words[:len(s.words)] // one bounds check, not one per word
	for i, w := range s.words {
		c += bits.OnesCount64(w & tw[i])
	}
	return c
}

// DifferenceCount returns |s \ t| without allocating.
func (s *Set) DifferenceCount(t *Set) int {
	s.sameUniverse(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] &^ t.words[i])
	}
	return c
}

// ForEach calls fn for each element in ascending order. If fn returns false,
// iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the elements of s in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest element strictly greater than i, or -1.
func (s *Set) NextAfter(i int) int {
	i++
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Word returns word i of s, elements 64i to 64i+63 with element 64i+j at
// bit j, for walks that work a word at a time outside this package (the
// Top-k miner's child walk). Bits past the universe are zero.
func (s *Set) Word(i int) uint64 { return s.words[i] }

// CountAfter returns the number of elements strictly greater than i.
func (s *Set) CountAfter(i int) int {
	i++
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return 0
	}
	wi := i / wordBits
	c := bits.OnesCount64(s.words[wi] >> (uint(i) % wordBits))
	for _, w := range s.words[wi+1:] {
		c += bits.OnesCount64(w)
	}
	return c
}

// MarshalBinary implements encoding.BinaryMarshaler: 8 bytes of universe
// size followed by the raw words, little-endian.
func (s *Set) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(s.words))
	putUint64(out, uint64(s.n))
	for i, w := range s.words {
		putUint64(out[8+8*i:], w)
	}
	return out, nil
}

// maxInt is the largest value representable by int on this platform; the
// decoder bounds untrusted sizes against it before any int conversion.
const maxInt = int(^uint(0) >> 1)

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Set) UnmarshalBinary(data []byte) error {
	s.guardWrite()
	if len(data) < 8 || (len(data)-8)%8 != 0 {
		return fmt.Errorf("bitset: malformed binary data (%d bytes)", len(data))
	}
	// The universe size is attacker-controlled: validate it in uint64 space
	// against the word count implied by len(data) before ever converting to
	// int. A direct int(u) would wrap on 32-bit platforms (e.g. u = 2³² + 1
	// becomes 1) and n+wordBits-1 would overflow for n near maxInt, making
	// the word-count cross-check pass on garbage.
	u := getUint64(data)
	words := (len(data) - 8) / 8
	if u > uint64(maxInt) {
		return fmt.Errorf("bitset: universe size %d overflows int", u)
	}
	// u ≤ maxInt ≤ 2⁶³-1, so u+wordBits-1 cannot overflow uint64.
	if (u+wordBits-1)/wordBits != uint64(words) {
		return fmt.Errorf("bitset: binary data has %d words for universe %d", words, u)
	}
	n := int(u)
	decoded := make([]uint64, words)
	for i := range decoded {
		decoded[i] = getUint64(data[8+8*i:])
	}
	// Padding bits in the last word must be zero: a set bit beyond the
	// universe means the data is corrupt (or was written by a different
	// encoding), and silently masking it would hide that.
	if rem := uint(n) % wordBits; rem != 0 {
		if stray := decoded[words-1] &^ (1<<rem - 1); stray != 0 {
			return fmt.Errorf("bitset: binary data has bits set beyond universe %d", n)
		}
	}
	s.n = n
	s.words = decoded
	return nil
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// appendWordLE appends w's 8 bytes, little-endian, the shared serialization
// of AppendKey, Key and MarshalBinary. Small enough to inline, so appending
// to a stack buffer does not escape.
func appendWordLE(dst []byte, w uint64) []byte {
	return append(dst,
		byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
		byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
}

// AppendKey appends the set's Key bytes to dst and returns the extended
// slice, in the append(dst, ...) style. It never allocates when dst has
// 8·len(words) spare capacity, so callers keying many sets can reuse one
// buffer; paired with Go's map[string(buf)] lookup optimization this makes
// map keying allocation-free on hits.
func (s *Set) AppendKey(dst []byte) []byte {
	for _, w := range s.words {
		dst = appendWordLE(dst, w)
	}
	return dst
}

// Key returns a string usable as a map key identifying the set's contents —
// the AppendKey bytes. Two sets over the same universe have equal keys iff
// they are Equal. One allocation (the string itself); to key many sets
// through one buffer use AppendKey.
func (s *Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	var tmp [8]byte
	for _, w := range s.words {
		b.Write(appendWordLE(tmp[:0], w))
	}
	return b.String()
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
