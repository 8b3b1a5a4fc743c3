package bitset

import (
	"math/rand"
	"testing"
)

const benchUniverse = 4096

func benchPair() (*Set, *Set) {
	r := rand.New(rand.NewSource(3))
	return randomSet(r, benchUniverse), randomSet(r, benchUniverse)
}

func BenchmarkIntersect(b *testing.B) {
	x, y := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Intersect(x, y)
	}
}

func BenchmarkIntersectInto(b *testing.B) {
	x, y := benchPair()
	dst := New(benchUniverse)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectInto(dst, y)
	}
}

func BenchmarkKey(b *testing.B) {
	x, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Key()
	}
}

// BenchmarkRank vs BenchmarkCountLoop is the directory's headline: a prefix
// popcount answered from the block directory against the full scan a
// Count-based covering check pays. BENCH_hotpath.json tracks both.
func BenchmarkRank(b *testing.B) {
	x, _ := benchPair()
	ix := x.BuildIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Rank((i * 769) % benchUniverse)
	}
}

// BenchmarkCountLoop is the scan Rank replaces: popcounting every word up
// to the probe point (here the whole set, as Count-style covering checks
// do).
func BenchmarkCountLoop(b *testing.B) {
	x, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

func BenchmarkSelect(b *testing.B) {
	x, _ := benchPair()
	ix := x.BuildIndex()
	c := ix.Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Select((i * 37) % c)
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	x, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.BuildIndex()
	}
}

func BenchmarkAppendKey(b *testing.B) {
	x, _ := benchPair()
	buf := make([]byte, 0, benchUniverse/8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.AppendKey(buf[:0])
	}
}

// BenchmarkIntersectColumns is one Top-k closure on the OC small 40%
// split's shape: a 40-gene selector (about half the genes, as a class
// row's itemset holds) over 101-row columns, through the column table.
func BenchmarkIntersectColumns(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	cols := make([]*Set, 40)
	for j := range cols {
		cols[j] = randomSet(r, 101)
	}
	tab := NewColumnTable(101, cols)
	sels := make([]*Set, 16)
	for i := range sels {
		sels[i] = randomSet(r, 40)
	}
	dst := New(101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dst.IntersectColumns(sels[i%len(sels)], tab)
	}
}
