package eval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/fault"
	"bstc/internal/synth"
)

// loadNoPanic runs the v2 decoder with a panic trap so a corrupt image that
// crashes it reports the offending mutation instead of killing the whole
// test binary.
func loadNoPanic(t *testing.T, what string, data []byte) (*Artifact, error) {
	t.Helper()
	var (
		a   *Artifact
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: decoder panicked: %v", what, r)
			}
		}()
		a, err = decodeV2(data)
	}()
	return a, err
}

func savedArtifactV2(t *testing.T) []byte {
	t.Helper()
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.SaveV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSamePredictions checks that got classifies every row of c exactly as
// ref does: same classes, same discretized rows, bit-exact confidences and
// per-class values.
func assertSamePredictions(t *testing.T, c *dataset.Continuous, ref, got *Artifact) {
	t.Helper()
	vals := make([]float64, len(ref.Classifier.Tables))
	gvals := make([]float64, len(got.Classifier.Tables))
	for i, row := range c.Values {
		wantClass, wantConf, err := ref.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		gotClass, gotConf, err := got.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if wantClass != gotClass || math.Float64bits(wantConf) != math.Float64bits(gotConf) {
			t.Fatalf("sample %d: loaded artifact predicts (%d, %v), in-memory (%d, %v)",
				i, gotClass, gotConf, wantClass, wantConf)
		}
		q, err := ref.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		gq, err := got.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Equal(gq) {
			t.Fatalf("sample %d: discretized rows differ between in-memory and loaded", i)
		}
		ref.Classifier.ValuesInto(vals, q)
		got.Classifier.ValuesInto(gvals, gq)
		for ci := range vals {
			if math.Float64bits(vals[ci]) != math.Float64bits(gvals[ci]) {
				t.Fatalf("sample %d class %d: loaded value %v, in-memory value %v",
					i, ci, gvals[ci], vals[ci])
			}
		}
	}
}

// TestArtifactRoundTripPaperDatasets pins the heap decode path: on every
// paper dataset profile, a v2 image saved to a buffer and decoded from it
// must classify byte-identically to the in-memory artifact, and re-saving
// the decoded artifact must reproduce the image byte for byte.
func TestArtifactRoundTripPaperDatasets(t *testing.T) {
	for _, p := range synth.PaperProfiles(synth.Small) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			art, err := TrainArtifact(c, nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := art.SaveV2(&buf); err != nil {
				t.Fatal(err)
			}
			saved := append([]byte(nil), buf.Bytes()...)
			loaded, err := decodeV2(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			assertSamePredictions(t, c, art, loaded)
			var again bytes.Buffer
			if err := loaded.SaveV2(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, again.Bytes()) {
				t.Fatal("re-saved artifact is not byte-identical to the original image")
			}
		})
	}
}

// TestArtifactV2MappedParityPaperDatasets is the serving-path regression
// pin: on every paper dataset profile, an artifact written to disk and
// served through LoadArtifactMapped must classify byte-identically to the
// in-memory pipeline it was trained as, and re-saving the mapped artifact
// must reproduce the file byte for byte.
func TestArtifactV2MappedParityPaperDatasets(t *testing.T) {
	for _, p := range synth.PaperProfiles(synth.Small) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := TrainArtifact(c, nil, 4)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "model.bstc")
			if err := WriteArtifactFile(path, ref, FormatV2); err != nil {
				t.Fatal(err)
			}
			mapped, err := LoadArtifactMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()

			assertSamePredictions(t, c, ref, mapped.Artifact)
			var again bytes.Buffer
			if err := mapped.SaveV2(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mapped.Bytes(), again.Bytes()) {
				t.Fatal("re-saved artifact is not byte-identical to the file it was mapped from")
			}
		})
	}
}

// TestArtifactV2ReaderRoundTrip pins that an image decoded from a heap
// buffer, rather than a mapping, re-encodes to the identical v2 image.
func TestArtifactV2ReaderRoundTrip(t *testing.T) {
	good := savedArtifactV2(t)
	a, err := decodeV2(good)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := a.SaveV2(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, again.Bytes()) {
		t.Fatal("re-saved v2 artifact is not byte-identical to the original image")
	}
}

// TestMappedArtifactSetsAreFrozen asserts the mapped classifier's bitsets
// reject writes: mutating one must panic instead of writing through to the
// mapping.
func TestMappedArtifactSetsAreFrozen(t *testing.T) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bstc")
	if err := WriteArtifactFile(path, art, FormatV2); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadArtifactMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	s := mapped.Classifier.Tables[0].ColumnGenes(0)
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a mapped bitset did not panic")
		}
	}()
	s.Add(0)
}

// v1Prefix is the head of a file in the retired v1 format: its magic and
// the start of the gob frame, as the last v1 writer produced them.
const v1Prefix = "BSTC-ARTIFACT\n=\xff\x99\x03\x01\x01\vartifactDTO\x01\xff\x9a\x00\x01\x03\x01\aVersion\x01\x04\x00"

// TestLoadArtifactMappedRejectsV1 pins that a file in a retired format
// fails loudly, naming the retired format and the command that rewrites
// it: a v1 gob file, a version 2 image (the committed golden of that
// version, which also stored every exclusion list) and a version 3 one
// (which stored each table's copy of the training rows).
func TestLoadArtifactMappedRejectsV1(t *testing.T) {
	v2, err := os.ReadFile(retiredV2Path)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(retiredV3Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, retired string
		data          []byte
	}{
		{"v1", "v1", []byte(v1Prefix)},
		{"v2", "version 2", v2},
		{"v3", "version 3", v3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.bstc")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadArtifactMapped(path)
			if !errors.Is(err, ErrCorruptArtifact) {
				t.Fatalf("mapped load of a %s file: err = %v, want ErrCorruptArtifact", tc.name, err)
			}
			for _, want := range []string{tc.retired, "bstc artifact"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s rejection %q does not mention %q", tc.name, err, want)
				}
			}
		})
	}
}

// TestArtifactV2EveryTruncation chops the image at every byte boundary: a
// partial artifact must always come back as ErrCorruptArtifact, never a
// panic and never a silently accepted half model.
func TestArtifactV2EveryTruncation(t *testing.T) {
	good := savedArtifactV2(t)
	for n := 0; n < len(good); n++ {
		_, err := loadNoPanic(t, "v2 truncation", good[:n])
		if err == nil {
			t.Fatalf("truncated to %d/%d bytes: accepted", n, len(good))
		}
		if !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("truncated to %d/%d bytes: error not wrapped in ErrCorruptArtifact: %v", n, len(good), err)
		}
	}
}

// TestArtifactV2BitFlips flips bits across the image. The metadata and
// words sections are checksummed, so any flip there must be rejected with
// the typed error; a flip the decoder tolerates (alignment padding is
// outside both checksums) must still yield a valid artifact. The mapped
// loader must agree with decoding the same bytes from the heap.
func TestArtifactV2BitFlips(t *testing.T) {
	good := savedArtifactV2(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.bstc")
	flip := func(off int, bit uint) {
		data := append([]byte(nil), good...)
		data[off] ^= 1 << bit
		a, err := loadNoPanic(t, "v2 bit flip", data)
		if err != nil && !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("flip byte %d bit %d: error not wrapped in ErrCorruptArtifact: %v", off, bit, err)
		}
		if err == nil {
			if verr := a.validate(); verr != nil {
				t.Fatalf("flip byte %d bit %d: accepted artifact fails validation: %v", off, bit, verr)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, merr := LoadArtifactMapped(path)
		if (merr == nil) != (err == nil) {
			t.Fatalf("flip byte %d bit %d: heap err %v, mapped err %v", off, bit, err, merr)
		}
		if merr != nil && !errors.Is(merr, ErrCorruptArtifact) {
			t.Fatalf("flip byte %d bit %d: mapped error not wrapped in ErrCorruptArtifact: %v", off, bit, merr)
		}
		if mapped != nil {
			mapped.Close()
		}
	}
	// Every bit of the header, where the framing lives.
	for off := 0; off < v2HeaderLen; off++ {
		for bit := uint(0); bit < 8; bit++ {
			flip(off, bit)
		}
	}
	// One rotating bit per byte across metadata, padding and words.
	for off := v2HeaderLen; off < len(good); off++ {
		flip(off, uint(off%8))
	}
}

// TestWriteArtifactFileAtomic injects faults at every write site and
// asserts the destination is never torn: after a failed write the old file
// (or its absence) is intact, and a retry with the fault cleared succeeds.
// A format other than v2 is refused before anything is written.
func TestWriteArtifactFileAtomic(t *testing.T) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	refused := filepath.Join(t.TempDir(), "model.bstc")
	if err := WriteArtifactFile(refused, art, "gob"); err == nil {
		t.Error("WriteArtifactFile accepted the retired gob format")
	}
	if _, err := os.Stat(refused); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused write left %s behind", refused)
	}
	boom := errors.New("injected write fault")
	for _, site := range []string{
		"eval.artifact.save",
		"eval.artifact.write.sync",
		"eval.artifact.write.rename",
	} {
		t.Run(site+"/"+FormatV2, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "model.bstc")

			// First fail with no prior file: nothing may appear.
			in := fault.NewInjector(1)
			in.Set(site, fault.Rule{Prob: 1, Err: boom})
			fault.Enable(in)
			err := WriteArtifactFile(path, art, FormatV2)
			fault.Disable()
			if !errors.Is(err, boom) {
				t.Fatalf("fault at %s not surfaced: %v", site, err)
			}
			if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("failed first write left %s behind", path)
			}
			leftovers, _ := filepath.Glob(filepath.Join(dir, ".*tmp*"))
			if len(leftovers) != 0 {
				t.Fatalf("failed write leaked temp files: %v", leftovers)
			}

			// Now succeed, then fail an overwrite: the good file must
			// survive byte-for-byte.
			if err := WriteArtifactFile(path, art, FormatV2); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			in = fault.NewInjector(1)
			in.Set(site, fault.Rule{Prob: 1, Err: boom})
			fault.Enable(in)
			err = WriteArtifactFile(path, art, FormatV2)
			fault.Disable()
			if !errors.Is(err, boom) {
				t.Fatalf("fault at %s not surfaced on overwrite: %v", site, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed overwrite tore the existing artifact")
			}
			if _, err := decodeV2(after); err != nil {
				t.Fatalf("artifact after failed overwrite no longer loads: %v", err)
			}
		})
	}
}

// TestArtifactWordsAreTrainingRows pins what an image persists: its words
// section is exactly the training rows, each stored once, in sample order:
// samples × ⌈items/64⌉ words. The tables' outside sets, the exclusion
// lists, their sizes and the black dots are derived at load, so no word of
// them is stored.
func TestArtifactWordsAreTrainingRows(t *testing.T) {
	for _, p := range synth.PaperProfiles(synth.Small) {
		c, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		art, err := TrainArtifact(c, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		train, err := art.Disc.Transform(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := art.SaveV2(&buf); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		wordsOff := binary.LittleEndian.Uint64(img[32:])
		wordsLen := binary.LittleEndian.Uint64(img[40:])
		want := 8 * len(c.Values) * ((art.Disc.NumItems() + 63) / 64)
		if wordsLen != uint64(want) || uint64(len(img)) != wordsOff+wordsLen {
			t.Errorf("%s: words section holds %d bytes (file %d, section at %d); %d samples' rows take %d",
				p.Name, wordsLen, len(img), wordsOff, len(c.Values), want)
			continue
		}
		var rows []byte
		for _, r := range train.Rows {
			rows = r.AppendKey(rows)
		}
		if !bytes.Equal(img[wordsOff:], rows) {
			t.Errorf("%s: words section is not the training rows in sample order", p.Name)
		}
	}
}

// TestMappedArtifactExplainMatchesTrained pins that explanations survive
// the file: on one row of every paper profile, the mapped artifact
// explains each class with the trained classifier's cells, field by field.
// The supporting sample is a training-set index, so this also pins that
// the rows are stored in sample order. One row only: every cell builds its
// full rule, about half a second per PC row, and every sample of every
// profile takes minutes.
func TestMappedArtifactExplainMatchesTrained(t *testing.T) {
	for _, p := range synth.PaperProfiles(synth.Small) {
		c, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := TrainArtifact(c, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "model.bstc")
		if err := WriteArtifactFile(path, ref, FormatV2); err != nil {
			t.Fatal(err)
		}
		mapped, err := LoadArtifactMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		i := len(c.Values) / 2
		q, err := ref.TransformRow(c.Values[i])
		if err != nil {
			t.Fatal(err)
		}
		for ci := range ref.Classifier.Tables {
			want := ref.Classifier.Explain(q, ci, 0)
			got := mapped.Classifier.Explain(q, ci, 0)
			if len(got) != len(want) {
				t.Fatalf("%s sample %d class %d: %d explanations, trained %d", p.Name, i, ci, len(got), len(want))
			}
			for k, w := range want {
				g := got[k]
				if g.Gene != w.Gene || g.SampleIndex != w.SampleIndex ||
					math.Float64bits(g.Satisfaction) != math.Float64bits(w.Satisfaction) {
					t.Fatalf("%s sample %d class %d explanation %d: mapped (gene %d, sample %d, %v), trained (gene %d, sample %d, %v)",
						p.Name, i, ci, k, g.Gene, g.SampleIndex, g.Satisfaction, w.Gene, w.SampleIndex, w.Satisfaction)
				}
			}
		}
		mapped.Close()
	}
}
