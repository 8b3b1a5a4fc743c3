package eval

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bstc/internal/bitset"
	"bstc/internal/core"
	"bstc/internal/discretize"
	"bstc/internal/fault"
)

// The artifact format: a flat, versioned, offset-indexed binary layout built
// for memory mapping, and the only artifact format. It separates the
// artifact into a small metadata section (names, cut points, table shapes,
// bitset references) and one 8-aligned little-endian words section holding
// every bitset's storage back to back. A loader with the file mapped
// aliases the words section in place — the page cache is the storage,
// shared across every process serving the same artifact — and only the
// metadata is materialized.
//
//	offset 0   magic "BSTCART2"                  (8 bytes)
//	offset 8   header                            (48 bytes)
//	             u32 version (=3), u32 reserved
//	             u64 metaOff, u64 metaLen
//	             u64 wordsOff, u64 wordsLen
//	             u32 metaCRC, u32 wordsCRC       (CRC-32C, Castagnoli)
//	metaOff    metadata section                  (metaLen bytes)
//	...        zero padding to 8-byte alignment
//	wordsOff   words section                     (wordsLen bytes, 8-aligned)
//
// All integers are little-endian. A table persists only its training rows
// (core.TableData): per table, its class, column and outside sample
// indices, gene count, and two bitset blocks — the column gene sets and the
// per-gene outside-expresser sets. Each slice's members share one
// universe, so the metadata references it as one block (count, n,
// wordOff): count sets over [0, n), stored back to back at words[wordOff:],
// ⌈n/64⌉ words each. The loader bounds-checks the block once and carves
// read-only views out of it in a single pass (bitset.ViewBlock), which is
// what keeps mapped cold start proportional to the metadata — per set it
// costs a padding-bit test and two pointer stores, never a decode. The
// exclusion lists, their sizes and the black dots are derived at load.
//
// Two retired formats are recognized only to be rejected with a pointer to
// the fix: v1, a gob stream led by artifactMagicV1, and version 2 of this
// layout, which also stored every exclusion list, a pair-size cache and
// black-dot flags.
const (
	artifactMagicV1        = "BSTC-ARTIFACT\n"
	artifactMagicV2        = "BSTCART2"
	artifactVersion        = 3
	artifactVersionRetired = 2
	v2HeaderLen            = 8 + 4 + 4 + 4*8 + 4 + 4 // magic through wordsCRC
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const maxInt = int(^uint(0) >> 1)

// ---- metadata encoder ----

type metaEnc struct{ b []byte }

func (e *metaEnc) u64(v uint64) {
	e.b = append(e.b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (e *metaEnc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *metaEnc) strs(ss []string) {
	e.u64(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *metaEnc) ints(vs []int) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.u64(uint64(v))
	}
}

func (e *metaEnc) f64s(vs []float64) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.u64(math.Float64bits(v))
	}
}

// ---- metadata decoder ----

// metaDec is a strict cursor over the metadata section. Every read is
// bounds-checked and every claimed length is capped by the bytes actually
// remaining, so a corrupt or adversarial length cannot drive allocation
// beyond the file's own size or index outside the section.
type metaDec struct {
	b   []byte
	off int
	err error
}

func (d *metaDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *metaDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("metadata truncated at offset %d", d.off)
		return 0
	}
	b := d.b[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// intv decodes a non-negative int, rejecting values that overflow int on
// the host (the 32-bit analogue of the bitset.UnmarshalBinary wrap fix).
func (d *metaDec) intv() int {
	v := d.u64()
	if v > uint64(maxInt) {
		d.fail("metadata value %d overflows int", v)
		return 0
	}
	return int(v)
}

// count decodes a length prefix for elements of at least elemSize bytes and
// checks it against the remaining section, so len-prefixed allocations stay
// bounded by the file size.
func (d *metaDec) count(elemSize int) int {
	n := d.intv()
	if d.err != nil {
		return 0
	}
	if rem := len(d.b) - d.off; n > rem/elemSize {
		d.fail("metadata claims %d elements with %d bytes left", n, rem)
		return 0
	}
	return n
}

func (d *metaDec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *metaDec) strs() []string {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *metaDec) ints() []int {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.intv()
	}
	return out
}

func (d *metaDec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(d.u64())
	}
	return out
}

// ---- bitset block table ----

// setWriter appends bitset slices to the shared words section as uniform
// blocks: every set of a slice shares one universe (a classifier invariant
// buildTable enforces), so the slice serializes as (count, n, wordOff) with
// the words laid back to back in AppendKey's little-endian layout. No
// per-set framing means the loader's work per set is a mask test, not a
// decode — the property the cold-start SLO rides on.
type setWriter struct {
	words []byte
	err   error
}

func (w *setWriter) refs(e *metaEnc, sets []*bitset.Set) {
	e.u64(uint64(len(sets)))
	n := 0
	if len(sets) > 0 {
		n = sets[0].Len()
	}
	e.u64(uint64(n))
	e.u64(uint64(len(w.words) / 8))
	for i, s := range sets {
		if s == nil || s.Len() != n {
			if w.err == nil {
				w.err = fmt.Errorf("eval: bitset slice not uniform: set %d is %v, want universe %d", i, s, n)
			}
			return
		}
		w.words = s.AppendKey(w.words)
	}
}

// setReader resolves (count, n, wordOff) blocks against the decoded words
// section. On the zero-copy path the words slice aliases the mapping, so
// the returned sets cost no memory beyond their headers — two allocations
// per block (the set headers, the pointer slice), regardless of count.
type setReader struct {
	words []uint64
	d     *metaDec
}

func (r *setReader) refs() []*bitset.Set {
	count := r.d.intv()
	n := r.d.intv()
	off := r.d.intv()
	if r.d.err != nil {
		return nil
	}
	// Bound the block in uint64 space before any int arithmetic: count and
	// the implied word total must fit the words section, so the allocation
	// below stays proportional to the file itself. Degenerate blocks
	// (universe 0) consume no words; cap their count by the file footprint.
	nw := (uint64(n) + 63) / 64
	total := uint64(count) * nw
	switch {
	case nw > 0 && (uint64(off) > uint64(len(r.words)) || total/nw != uint64(count) || total > uint64(len(r.words))-uint64(off)):
		r.d.fail("bitset block [%d, +%d sets x %d words) outside words section of %d words", off, count, nw, len(r.words))
		return nil
	case nw == 0 && count > len(r.d.b)+len(r.words):
		r.d.fail("bitset block claims %d empty-universe sets", count)
		return nil
	}
	if count == 0 {
		return nil
	}
	sets, err := bitset.ViewBlock(r.words[off:off+int(total):off+int(total)], n, count)
	if err != nil {
		r.d.fail("bitset block at word %d: %v", off, err)
		return nil
	}
	return sets
}

// ---- encode ----

// appendV2 serializes the artifact into the v2 layout, appending to dst.
func appendV2(dst []byte, a *Artifact) ([]byte, error) {
	var meta metaEnc
	sets := new(setWriter)

	// Discretizer parts.
	meta.u64(uint64(a.Disc.NumGenes()))
	meta.u64(uint64(len(a.Disc.GeneCuts)))
	for _, cuts := range a.Disc.GeneCuts {
		meta.f64s(cuts)
	}
	meta.strs(a.Disc.ItemNames)
	meta.strs(a.Disc.ClassNames)

	// Classifier parts.
	d := a.Classifier.Export()
	meta.strs(d.ClassNames)
	meta.strs(d.GeneNames)
	meta.u64(uint64(d.Opts.Arithmetization))
	meta.u64(uint64(d.Opts.CullListsTo))
	meta.u64(uint64(len(d.Tables)))
	for _, t := range d.Tables {
		meta.u64(uint64(t.Class))
		meta.ints(t.ClassSamples)
		meta.ints(t.OutsideSamples)
		meta.u64(uint64(t.NumGenes))
		sets.refs(&meta, t.ColGenes)
		sets.refs(&meta, t.GeneOutside)
	}
	if sets.err != nil {
		return nil, sets.err
	}

	metaOff := uint64(v2HeaderLen)
	wordsOff := (metaOff + uint64(len(meta.b)) + 7) &^ 7

	var hdr metaEnc
	hdr.b = append(dst, artifactMagicV2...)
	hdr.u64(uint64(artifactVersion)) // u32 version + u32 reserved, both LE
	hdr.u64(metaOff)
	hdr.u64(uint64(len(meta.b)))
	hdr.u64(wordsOff)
	hdr.u64(uint64(len(sets.words)))
	hdr.u64(uint64(crc32.Checksum(meta.b, castagnoli)) |
		uint64(crc32.Checksum(sets.words, castagnoli))<<32)

	out := append(hdr.b, meta.b...)
	for uint64(len(out)-len(dst)) < wordsOff {
		out = append(out, 0)
	}
	return append(out, sets.words...), nil
}

// SaveV2 writes the artifact in format v2, the layout LoadArtifactMapped
// serves zero-copy.
func (a *Artifact) SaveV2(w io.Writer) error {
	if a.Disc == nil || a.Classifier == nil {
		return fmt.Errorf("eval: artifact needs both a discretizer and a classifier")
	}
	if err := fault.Hit("eval.artifact.save"); err != nil {
		return err
	}
	img, err := appendV2(nil, a)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// ---- decode ----

// decodeV2 parses a complete v2 image. The bitset words are aliased in
// place, so data must outlive the artifact (it is a mapping, or a buffer the
// caller keeps); where in-place aliasing is impossible (misalignment,
// big-endian host) the words are copied instead.
//
// Every failure path wraps ErrCorruptArtifact; no input panics.
func decodeV2(data []byte) (*Artifact, error) {
	corrupt := func(format string, args ...any) (*Artifact, error) {
		return nil, fmt.Errorf("%w: %s", ErrCorruptArtifact, fmt.Sprintf(format, args...))
	}
	if bytes.HasPrefix(data, []byte(artifactMagicV1)) {
		return corrupt("v1 gob artifact: the v1 format is retired; rewrite the file with `bstc artifact`")
	}
	if len(data) < v2HeaderLen || string(data[:8]) != artifactMagicV2 {
		return corrupt("not a v2 artifact (bad magic)")
	}
	h := &metaDec{b: data, off: 8}
	verWord := h.u64()
	metaOff, metaLen := h.u64(), h.u64()
	wordsOff, wordsLen := h.u64(), h.u64()
	crcs := h.u64()
	if h.err != nil {
		return corrupt("header: %v", h.err)
	}
	switch ver := uint32(verWord); ver {
	case artifactVersion:
	case artifactVersionRetired:
		return corrupt("format version 2: the version 2 layout, which stored every exclusion list, is retired; rewrite the file with `bstc artifact`")
	default:
		return corrupt("format version %d, want %d", ver, artifactVersion)
	}
	n := uint64(len(data))
	switch {
	case metaOff != v2HeaderLen:
		return corrupt("metadata offset %d, want %d", metaOff, v2HeaderLen)
	case metaLen > n-metaOff:
		return corrupt("metadata section [%d, +%d) outside file of %d bytes", metaOff, metaLen, n)
	case wordsOff%8 != 0 || wordsOff < metaOff+metaLen:
		return corrupt("words section offset %d misplaced", wordsOff)
	case wordsOff > n || wordsLen != n-wordsOff:
		return corrupt("words section [%d, +%d) does not end the %d-byte file", wordsOff, wordsLen, n)
	}
	metaBytes := data[metaOff : metaOff+metaLen]
	wordBytes := data[wordsOff:]
	if got := uint32(crcs); got != crc32.Checksum(metaBytes, castagnoli) {
		return corrupt("metadata checksum mismatch")
	}
	if got := uint32(crcs >> 32); got != crc32.Checksum(wordBytes, castagnoli) {
		return corrupt("words checksum mismatch")
	}

	words, aliased := bitset.AliasWords(wordBytes)
	if !aliased {
		var err error
		if words, err = bitset.CopyWords(wordBytes); err != nil {
			return corrupt("words section: %v", err)
		}
	}

	d := &metaDec{b: metaBytes}
	sets := &setReader{words: words, d: d}

	numGenes := d.intv()
	geneCuts := make([][]float64, 0, d.count(8))
	for i := 0; i < cap(geneCuts) && d.err == nil; i++ {
		geneCuts = append(geneCuts, d.f64s())
	}
	itemNames := d.strs()
	discClassNames := d.strs()

	cd := core.ClassifierData{ClassNames: d.strs(), GeneNames: d.strs()}
	cd.Opts.Arithmetization = core.Arithmetization(d.intv())
	cd.Opts.CullListsTo = d.intv()
	nTables := d.count(1)
	for i := 0; i < nTables && d.err == nil; i++ {
		cd.Tables = append(cd.Tables, core.TableData{
			Class:          d.intv(),
			ClassSamples:   d.ints(),
			OutsideSamples: d.ints(),
			NumGenes:       d.intv(),
			ColGenes:       sets.refs(),
			GeneOutside:    sets.refs(),
		})
	}
	if d.err != nil {
		return corrupt("metadata: %v", d.err)
	}
	if d.off != len(d.b) {
		return corrupt("metadata has %d trailing bytes", len(d.b)-d.off)
	}

	disc, err := discretize.NewModel(numGenes, geneCuts, itemNames, discClassNames)
	if err != nil {
		return corrupt("discretizer: %v", err)
	}
	cl, err := core.BuildClassifier(cd)
	if err != nil {
		return corrupt("classifier: %v", err)
	}
	a := &Artifact{Disc: disc, Classifier: cl}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	return a, nil
}
