package eval

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bstc/internal/synth"
)

// benchState holds the shared cold-start fixture: training the paper-scale
// artifact and writing it costs ~a second and ~60MB of temp space, so every
// benchmark reuses one copy. TestMain removes the directory after the run
// (b.TempDir would tear it down between benchmarks).
var benchState struct {
	once sync.Once
	dir  string
	rows [][]float64
	path string
	err  error
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
// the shape where cold start matters: the mapped path aliases their words
// untouched instead of decoding every bitset onto the heap.
func benchArtifact(b *testing.B) string {
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
		art, err := TrainArtifact(c, nil, 4)
		if err != nil {
			s.err = err
			return
		}
		if s.dir, err = os.MkdirTemp("", "bstc-bench-"); err != nil {
			s.err = err
			return
		}
		s.path = filepath.Join(s.dir, "model.bstc")
		s.err = WriteArtifactFile(s.path, art, FormatV2)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.path
}

// BenchmarkArtifactColdStartMapped measures the v2 zero-copy cold start:
// mmap, validate, parse the metadata section, alias every bitset in place.
// The words — the bulk of the file — are never deserialized.
func BenchmarkArtifactColdStartMapped(b *testing.B) {
	path := benchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := LoadArtifactMapped(path)
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
	path := benchArtifact(b)
	rows := benchState.rows
	m, err := LoadArtifactMapped(path)
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
