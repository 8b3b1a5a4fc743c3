package bitset

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// ViewBlock carves count read-only sets over [0, n) out of a contiguous
// word region that the caller owns, typically a section of a memory-mapped
// artifact: set i aliases words[i·w : (i+1)·w] where w = ⌈n/64⌉. Nothing is
// copied, so the mapping's pages are the storage and every process serving
// the same artifact shares one page-cache copy.
//
// The sets are frozen: they work anywhere a query-side Set is accepted
// (intersection counts, clause satisfaction, classification), and every
// mutator panics on them rather than writing through to memory they do not
// own. ViewBlock validates the invariants every Set maintains internally —
// the region holds exactly count·w words and the padding bits beyond n are
// zero in every set — so corrupt input fails here, loudly, instead of
// silently skewing every Count downstream. A block costs two allocations
// however many sets it holds, and one mask test per set.
func ViewBlock(words []uint64, n, count int) ([]*Set, error) {
	if n < 0 || n > maxInt-wordBits {
		return nil, fmt.Errorf("bitset: invalid universe size %d", n)
	}
	if count < 0 {
		return nil, fmt.Errorf("bitset: negative set count %d", count)
	}
	nw := (n + wordBits - 1) / wordBits
	if nw > 0 && count > len(words)/nw || len(words) != count*nw {
		return nil, fmt.Errorf("bitset: block of %d words cannot hold %d sets over universe %d", len(words), count, n)
	}
	var stray uint64
	if rem := uint(n) % wordBits; rem != 0 {
		stray = ^(1<<rem - 1)
	}
	sets := make([]Set, count)
	out := make([]*Set, count)
	off := 0
	for i := range out {
		w := words[off : off+nw : off+nw]
		off += nw
		if nw > 0 && w[nw-1]&stray != 0 {
			return nil, fmt.Errorf("bitset: block set %d has bits set beyond universe %d", i, n)
		}
		sets[i] = Set{words: w, n: n, frozen: true}
		out[i] = &sets[i]
	}
	return out, nil
}

// hostLittleEndian reports whether native byte order is little-endian, the
// order MarshalBinary/AppendKey serialize words in. On the (rare)
// big-endian host, zero-copy aliasing of serialized words is impossible
// and callers must fall back to a copying decode.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1

// AliasWords reinterprets a little-endian serialized word region (as
// written by AppendKey or an artifact words section) as a []uint64 without
// copying. It returns ok=false when zero-copy is impossible — the data is
// not 8-byte aligned, its length is not a multiple of 8, or the host is
// big-endian — in which case the caller should fall back to a copying
// decode (see CopyWords).
func AliasWords(data []byte) (words []uint64, ok bool) {
	if len(data)%8 != 0 || !hostLittleEndian {
		return nil, false
	}
	if len(data) == 0 {
		return nil, true
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), len(data)/8), true
}

// CopyWords decodes a little-endian serialized word region into a fresh
// []uint64 — the portable fallback for AliasWords. len(data) must be a
// multiple of 8.
func CopyWords(data []byte) ([]uint64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("bitset: word region of %d bytes is not a whole number of words", len(data))
	}
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = getUint64(data[8*i:])
	}
	return words, nil
}
