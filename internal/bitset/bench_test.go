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
