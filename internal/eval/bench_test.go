package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bstc/internal/synth"
)

// benchState holds the shared cold-start fixture: training the paper-scale
// artifact and writing both formats costs ~a second and ~100MB of temp
// space, so every benchmark reuses one copy. TestMain removes the
// directory after the run (b.TempDir would tear it down between
// benchmarks).
var benchState struct {
	once    sync.Once
	dir     string
	art     *Artifact
	rows    [][]float64
	gobPath string
	v2Path  string
	err     error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchState.dir != "" {
		os.RemoveAll(benchState.dir)
	}
	os.Exit(code)
}

// benchArtifact trains one artifact on the largest paper profile at full
// paper scale (OC: 15,154 genes × 253 samples, Table 2's biggest dataset).
// That is the largest artifact the suite produces — ~30k shared pair lists
// over a 15k-gene universe, a words section in the tens of megabytes — and
// the shape where cold start matters: gob must decode every one of those
// bitsets onto the heap, while the mapped path aliases their words
// untouched.
func benchArtifact(b *testing.B) (*Artifact, string, string) {
	b.Helper()
	s := &benchState
	s.once.Do(func() {
		p := synth.PaperProfiles(synth.Paper)[3]
		c, err := p.Generate()
		if err != nil {
			s.err = err
			return
		}
		s.rows = c.Values
		if s.art, err = TrainArtifact(c, nil, 4); err != nil {
			s.err = err
			return
		}
		if s.dir, err = os.MkdirTemp("", "bstc-bench-"); err != nil {
			s.err = err
			return
		}
		s.gobPath = filepath.Join(s.dir, "model.gob.bstc")
		s.v2Path = filepath.Join(s.dir, "model.v2.bstc")
		if err := WriteArtifactFile(s.gobPath, s.art, FormatGob); err != nil {
			s.err = err
			return
		}
		s.err = WriteArtifactFile(s.v2Path, s.art, FormatV2)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.art, s.gobPath, s.v2Path
}

// BenchmarkArtifactColdStartGob measures the v1 serving cold start: read
// the file and gob-decode every table and bitset onto the heap. This is
// what every daemon paid before format v2.
func BenchmarkArtifactColdStartGob(b *testing.B) {
	_, gobPath, _ := benchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := os.ReadFile(gobPath)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := LoadArtifact(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArtifactColdStartMapped measures the v2 zero-copy cold start:
// mmap, validate, parse the metadata section, alias every bitset in place.
// The words — the bulk of the file — are never deserialized.
func BenchmarkArtifactColdStartMapped(b *testing.B) {
	_, _, v2Path := benchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := LoadArtifactMapped(v2Path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// BenchmarkMappedClassifyRow pins per-query classification cost when
// serving out of the mapping, on the traffic a server actually sees: it
// cycles the OC profile's real samples (an all-zero row would express no
// genes and leave BSTCE nothing to do). Frozen views classify at native Set
// speed, so the cold-start win is not paid back per query.
func BenchmarkMappedClassifyRow(b *testing.B) {
	_, _, v2Path := benchArtifact(b)
	rows := benchState.rows
	m, err := LoadArtifactMapped(v2Path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ClassifyRow(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}
