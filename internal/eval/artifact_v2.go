package eval

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bstc/internal/bitset"
	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/fault"
)

// The artifact format: a flat, versioned, offset-indexed binary layout built
// for memory mapping, and the only artifact format. It separates the
// artifact into a small metadata section (names, cut points, options, class
// labels) and one 8-aligned little-endian words section holding the
// classifier's training rows back to back. A loader with the file mapped
// aliases the words section in place — the page cache is the storage,
// shared across every process serving the same artifact — and only the
// metadata is materialized.
//
//	offset 0   magic "BSTCART2"                  (8 bytes)
//	offset 8   header                            (48 bytes)
//	             u32 version (=4), u32 reserved
//	             u64 metaOff, u64 metaLen
//	             u64 wordsOff, u64 wordsLen
//	             u32 metaCRC, u32 wordsCRC       (CRC-32C, Castagnoli)
//	metaOff    metadata section                  (metaLen bytes)
//	...        zero padding to 8-byte alignment
//	wordsOff   words section                     (wordsLen bytes, 8-aligned)
//
// All integers are little-endian. BSTC is parameter-free: a trained
// classifier is fully determined by its Boolean training set and its two
// BSTCE options, so that is all the artifact stores of it
// (core.Classifier.TrainingSet): class and item names, the options, and one
// class label per training sample, in sample order. The words section is
// exactly those samples' rows in the same order, ⌈items/64⌉ words each, in
// AppendKey's layout. The loader carves read-only views out of it in one
// pass (bitset.ViewBlock, which also checks that the section holds exactly
// labels × ⌈items/64⌉ words; per row it costs a padding-bit test and two
// pointer stores, never a decode) and hands the set to core.Train, the one
// constructor of every classifier. Train validates it as it validates any
// training input and derives the rest: the tables, their exclusion lists
// and black dots, and the shared pair layout.
//
// Three retired formats are recognized only to be rejected with a pointer
// to the fix: v1, a gob stream led by artifactMagicV1; version 2 of this
// layout, which also stored every exclusion list, a pair-size cache and
// black-dot flags; and version 3, which stored each table's rows, so every
// sample once per table.
const (
	artifactMagicV1 = "BSTC-ARTIFACT\n"
	artifactMagicV2 = "BSTCART2"
	artifactVersion = 4
	v2HeaderLen     = 8 + 4 + 4 + 4*8 + 4 + 4 // magic through wordsCRC
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

// ---- encode ----

// appendV2 serializes the artifact into the v2 layout, appending to dst.
func appendV2(dst []byte, a *Artifact) []byte {
	var meta metaEnc

	// Discretizer parts.
	meta.u64(uint64(a.Disc.NumGenes()))
	meta.u64(uint64(len(a.Disc.GeneCuts)))
	for _, cuts := range a.Disc.GeneCuts {
		meta.f64s(cuts)
	}
	meta.strs(a.Disc.ItemNames)
	meta.strs(a.Disc.ClassNames)

	// Classifier parts: its training set and options.
	d := a.Classifier.TrainingSet()
	meta.strs(d.ClassNames)
	meta.strs(d.GeneNames)
	meta.u64(uint64(a.Classifier.Opts.Arithmetization))
	meta.u64(uint64(a.Classifier.Opts.CullListsTo))
	meta.ints(d.Classes)
	words := make([]byte, 0, 8*len(d.Rows)*((d.NumGenes()+63)/64))
	for _, row := range d.Rows {
		words = row.AppendKey(words)
	}
	return frameV2(dst, meta.b, words)
}

// frameV2 appends the header, the metadata section, the alignment padding
// and the words section to dst.
func frameV2(dst, meta, words []byte) []byte {
	metaOff := uint64(v2HeaderLen)
	wordsOff := (metaOff + uint64(len(meta)) + 7) &^ 7

	var hdr metaEnc
	hdr.b = append(dst, artifactMagicV2...)
	hdr.u64(uint64(artifactVersion)) // u32 version + u32 reserved, both LE
	hdr.u64(metaOff)
	hdr.u64(uint64(len(meta)))
	hdr.u64(wordsOff)
	hdr.u64(uint64(len(words)))
	hdr.u64(uint64(crc32.Checksum(meta, castagnoli)) |
		uint64(crc32.Checksum(words, castagnoli))<<32)

	out := append(hdr.b, meta...)
	for uint64(len(out)-len(dst)) < wordsOff {
		out = append(out, 0)
	}
	return append(out, words...)
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
	_, err := w.Write(appendV2(nil, a))
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
	case 2, 3:
		return corrupt("format version %d is retired; rewrite the file with `bstc artifact`", ver)
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
	numGenes := d.intv()
	geneCuts := make([][]float64, 0, d.count(8))
	for i := 0; i < cap(geneCuts) && d.err == nil; i++ {
		geneCuts = append(geneCuts, d.f64s())
	}
	itemNames := d.strs()
	discClassNames := d.strs()

	train := &dataset.Bool{ClassNames: d.strs(), GeneNames: d.strs()}
	opts := core.EvalOptions{Arithmetization: core.Arithmetization(d.intv()), CullListsTo: d.intv()}
	train.Classes = d.ints()
	if d.err != nil {
		return corrupt("metadata: %v", d.err)
	}
	if d.off != len(d.b) {
		return corrupt("metadata has %d trailing bytes", len(d.b)-d.off)
	}
	rows, err := bitset.ViewBlock(words, len(train.GeneNames), len(train.Classes))
	if err != nil {
		return corrupt("training rows: %v", err)
	}
	train.Rows = rows

	disc, err := discretize.NewModel(numGenes, geneCuts, itemNames, discClassNames)
	if err != nil {
		return corrupt("discretizer: %v", err)
	}
	cl, err := core.Train(train, &opts)
	if err != nil {
		return corrupt("classifier: %v", err)
	}
	a := &Artifact{Disc: disc, Classifier: cl}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	return a, nil
}
