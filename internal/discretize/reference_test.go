package discretize

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/synth"
)

// referenceEntropyMDL is EntropyMDL without the term cache: an index
// permutation sorted with sort.Slice, fresh right counts for every
// candidate cut, and every entropy term computed with math.Log2. Its
// products are rounded explicitly like EntropyMDL's; on amd64, where the
// compiler fuses nothing, that compiles to the same instructions as the
// unrounded expressions.
func referenceEntropyMDL(values []float64, classes []int, numClasses int) []float64 {
	n := len(values)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
	sortedVals := make([]float64, n)
	sortedCls := make([]int, n)
	for i, idx := range order {
		sortedVals[i] = values[idx]
		sortedCls[i] = classes[idx]
	}
	var cuts []float64
	referenceSplit(sortedVals, sortedCls, 0, n, numClasses, &cuts)
	sort.Float64s(cuts)
	return cuts
}

func referenceSplit(vals []float64, cls []int, lo, hi, numClasses int, cuts *[]float64) {
	n := hi - lo
	if n < 2 {
		return
	}
	total := make([]int, numClasses)
	for i := lo; i < hi; i++ {
		total[cls[i]]++
	}
	ent := referenceEntropy(total, n)
	if ent == 0 {
		return
	}
	left := make([]int, numClasses)
	bestGain, bestPos := -1.0, -1
	var bestLeftEnt, bestRightEnt float64
	var bestLeftK, bestRightK int
	for i := lo; i < hi-1; i++ {
		left[cls[i]]++
		if vals[i] == vals[i+1] {
			continue
		}
		nl := i - lo + 1
		nr := n - nl
		le := referenceEntropy(left, nl)
		right := make([]int, numClasses)
		for c := range right {
			right[c] = total[c] - left[c]
		}
		re := referenceEntropy(right, nr)
		gain := ent - (float64(float64(nl)*le)+float64(float64(nr)*re))/float64(n)
		if gain > bestGain {
			bestGain, bestPos = gain, i
			bestLeftEnt, bestRightEnt = le, re
			bestLeftK, bestRightK = distinct(left), distinct(right)
		}
	}
	if bestPos < 0 {
		return
	}
	k := distinct(total)
	delta := math.Log2(math.Pow(3, float64(k))-2) -
		(float64(float64(k)*ent) - float64(float64(bestLeftK)*bestLeftEnt) - float64(float64(bestRightK)*bestRightEnt))
	threshold := (math.Log2(float64(n-1)) + delta) / float64(n)
	if bestGain <= threshold {
		return
	}
	*cuts = append(*cuts, (vals[bestPos]+vals[bestPos+1])/2)
	referenceSplit(vals, cls, lo, bestPos+1, numClasses, cuts)
	referenceSplit(vals, cls, bestPos+1, hi, numClasses, cuts)
}

func referenceEntropy(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	e := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(n)
			e -= float64(p * math.Log2(p))
		}
	}
	return e
}

// checkSameCuts fails unless EntropyMDL and the reference return the same
// cut bits on one column, and returns EntropyMDL's cuts.
func checkSameCuts(t *testing.T, name string, values []float64, classes []int, numClasses int) []float64 {
	t.Helper()
	got := EntropyMDL(values, classes, numClasses)
	want := referenceEntropyMDL(values, classes, numClasses)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = math.Float64bits(got[i]) == math.Float64bits(want[i])
	}
	if !same {
		t.Fatalf("%s (%d samples, %d classes): cuts %v, reference %v", name, len(values), numClasses, got, want)
	}
	return got
}

// smallSplit is a synth small-scale profile's training split at frac, drawn
// as the studies draw it (RandomFractionSplit, seed 1).
func smallSplit(t testing.TB, profile string, frac float64) *dataset.Continuous {
	t.Helper()
	p, err := synth.ProfileByName(profile, synth.Small)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(1)), c.NumSamples(), frac)
	if err != nil {
		t.Fatal(err)
	}
	return c.Subset(sp.Train)
}

// randomColumn draws an n-sample column over numClasses classes whose
// values come from a small palette (heavy ties, with -0 beside +0) and
// whose classes mostly follow the value, so the split recurses.
func randomColumn(r *rand.Rand, n, numClasses int) ([]float64, []int) {
	palette := make([]float64, 1+r.Intn(n))
	for i := range palette {
		v := math.Round(r.NormFloat64()*8) / 4
		if v == 0 && r.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		palette[i] = v
	}
	sort.Float64s(palette)
	values := make([]float64, n)
	classes := make([]int, n)
	for i := range values {
		j := r.Intn(len(palette))
		values[i] = palette[j]
		classes[i] = j * numClasses / len(palette)
		if r.Intn(5) == 0 {
			classes[i] = r.Intn(numClasses)
		}
	}
	return values, classes
}

func TestEntropyMDLMatchesReference(t *testing.T) {
	for _, profile := range []string{"OC", "PC"} {
		for _, frac := range []float64{0.4, 0.6, 0.8} {
			train := smallSplit(t, profile, frac)
			col := make([]float64, train.NumSamples())
			kept := 0
			for g := 0; g < train.NumGenes(); g++ {
				for i, row := range train.Values {
					col[i] = row[g]
				}
				if len(checkSameCuts(t, fmt.Sprintf("%s %.0f%% gene %d", profile, 100*frac, g), col, train.Classes, train.NumClasses())) > 0 {
					kept++
				}
			}
			if kept == 0 {
				t.Fatalf("%s %.0f%%: no gene kept, the comparison is vacuous", profile, 100*frac)
			}
		}
	}
	r := rand.New(rand.NewSource(26))
	sizes := []int{1, 2, 3, termCap - 1, termCap, termCap + 1, 1100}
	for len(sizes) < 300 {
		sizes = append(sizes, 1+r.Intn(1100))
	}
	for i, n := range sizes {
		numClasses := 1 + r.Intn(4)
		values, classes := randomColumn(r, n, numClasses)
		checkSameCuts(t, fmt.Sprintf("random column %d", i), values, classes, numClasses)
	}
}

// TestEntropyTermsMatchFormula checks every cached term, then whole
// entropies of random class counts over up to six classes, from the table
// and, above the cap, computed: both must be the reference's float64s,
// whose terms are subtracted in class order.
func TestEntropyTermsMatchFormula(t *testing.T) {
	tab := newTermTable(termCap)
	for m := 1; m <= termCap; m++ {
		for c := 1; c <= m; c++ {
			p := float64(c) / float64(m)
			want := float64(p * math.Log2(p))
			if got := tab.terms[m*(m+1)/2+c]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("term(%d, %d) = %v, formula %v", c, m, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		counts := make([]int, 1+r.Intn(6))
		m := 0
		for c := range counts {
			if r.Intn(4) > 0 {
				counts[c] = r.Intn(1 + r.Intn(termCap/len(counts)+40))
			}
			m += counts[c]
		}
		got, want := tab.entropy(counts, m), referenceEntropy(counts, m)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("entropy(%v, %d) = %v, reference %v", counts, m, got, want)
		}
	}
}

// TestTermCacheConcurrentGrowth grows one cache from several goroutines at
// once, as the workers of concurrent fits do; run it under -race.
func TestTermCacheConcurrentGrowth(t *testing.T) {
	var c termCache
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, n := range []int{1 + w, 101 + w, 202 + w, termCap - w, termCap + 1 + w} {
				tab := c.table(n)
				if tab.n < min(n, termCap) {
					t.Errorf("table(%d) covers %d samples", n, tab.n)
					return
				}
				m := min(n, tab.n)
				if got, want := tab.terms[m*(m+1)/2+1], term(1, m); got != want {
					t.Errorf("table(%d): term(1, %d) = %v, want %v", n, m, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.table(1).n; got != termCap {
		t.Errorf("cache covers %d samples after growth to the cap, want %d", got, termCap)
	}
}

// TestEntropyMDLAllocs pins a gene's allocations to a constant: a 202-sample
// column (the OC paper 80% split's size) with about 200 candidate cuts.
func TestEntropyMDLAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	values := make([]float64, 202)
	classes := make([]int, len(values))
	for i := range values {
		classes[i] = i % 2
		values[i] = r.NormFloat64() + 2*float64(classes[i])
	}
	if len(EntropyMDL(values, classes, 2)) == 0 {
		t.Fatal("column has no accepted cut: the pin does not cover the recursion")
	}
	allocs := testing.AllocsPerRun(20, func() { EntropyMDL(values, classes, 2) })
	if allocs > 4 {
		t.Errorf("EntropyMDL made %.0f allocations on a 202-sample column, want at most 4", allocs)
	}
}

// FuzzEntropyMDL diffs EntropyMDL against the reference. Each 3-byte record
// is one sample: a little-endian int16 value code times scale (the code
// -32768 is -0), and a class byte taken modulo 1 + classes%4. Non-finite
// values are skipped, as Fit rejects them.
func FuzzEntropyMDL(f *testing.F) {
	f.Add(uint8(1), 1.0, []byte{1, 0, 0, 2, 0, 0, 9, 0, 1, 10, 0, 1})
	f.Add(uint8(2), 0.25, []byte{0, 0x80, 0, 0, 0, 1, 0, 0x80, 2, 1, 0, 0, 1, 0, 1, 2, 0, 2})
	f.Add(uint8(3), 1e-320, []byte{0xff, 0x7f, 0, 1, 0x80, 1, 0, 0, 2, 0xfe, 0x7f, 3})
	f.Add(uint8(1), 5e303, []byte{0xff, 0x7f, 0, 0xff, 0x7f, 0, 0xff, 0x7f, 0, 0xf8, 0x7f, 1, 0xf8, 0x7f, 1, 0xf8, 0x7f, 1}) // the midpoint overflows to +Inf
	f.Fuzz(func(t *testing.T, classes uint8, scale float64, data []byte) {
		numClasses := 1 + int(classes%4)
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		var values []float64
		var cls []int
		for ; len(data) >= 3; data = data[3:] {
			code := int16(binary.LittleEndian.Uint16(data))
			v := float64(code) * scale
			if code == math.MinInt16 {
				v = math.Copysign(0, -1)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			values = append(values, v)
			cls = append(cls, int(data[2])%numClasses)
		}
		checkSameCuts(t, "fuzz column", values, cls, numClasses)
	})
}
