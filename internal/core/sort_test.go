package core

import (
	"sort"
	"testing"
	"testing/quick"

	"req/internal/rng"
)

// fless is the canonical order, so every core test exercises the sketch
// on the vec kernel table (the generic table of other orders is covered
// separately by the kernel differential suite).
var fless = LessF64

func TestSortSliceMatchesStdlib(t *testing.T) {
	f := func(xs []float64) bool {
		mine := append([]float64(nil), xs...)
		std := append([]float64(nil), xs...)
		sortSlice(mine, fless)
		sort.Float64s(std)
		for i := range mine {
			if mine[i] != std[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSortSliceSizes(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{0, 1, 2, 3, insertionThreshold, insertionThreshold + 1, 100, 1000, 10000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		sortSlice(xs, fless)
		if !isSorted(xs, fless) {
			t.Fatalf("sortSlice failed for n=%d", n)
		}
	}
}

func TestSortSliceAdversarialPatterns(t *testing.T) {
	const n = 4096
	patterns := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"constant":   func(i int) float64 { return 42 },
		"sawtooth":   func(i int) float64 { return float64(i % 7) },
		"organpipe": func(i int) float64 {
			if i < n/2 {
				return float64(i)
			}
			return float64(n - i)
		},
	}
	for name, gen := range patterns {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen(i)
		}
		sortSlice(xs, fless)
		if !isSorted(xs, fless) {
			t.Fatalf("pattern %q not sorted", name)
		}
	}
}

func TestSortSlicePreservesMultiset(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 5000)
	sum := 0.0
	for i := range xs {
		xs[i] = float64(r.Intn(100))
		sum += xs[i]
	}
	sortSlice(xs, fless)
	got := 0.0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("multiset changed: sum %v != %v", got, sum)
	}
}

func TestSortSliceCustomOrder(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	sortSlice(xs, func(a, b float64) bool { return a > b }) // descending
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			t.Fatalf("descending sort failed: %v", xs)
		}
	}
}

func TestHeapsortDirect(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	heapsort(xs, fless)
	if !isSorted(xs, fless) {
		t.Fatal("heapsort failed")
	}
}

func TestInsertionSortDirect(t *testing.T) {
	xs := []float64{5, 4, 3, 2, 1}
	insertionSort(xs, fless)
	if !isSorted(xs, fless) {
		t.Fatal("insertionSort failed")
	}
}

func TestSearchLE(t *testing.T) {
	xs := []float64{1, 2, 2, 2, 5, 8}
	cases := []struct {
		y    float64
		want int
	}{
		{0, 0}, {1, 1}, {1.5, 1}, {2, 4}, {3, 4}, {5, 5}, {8, 6}, {9, 6},
	}
	for _, c := range cases {
		if got := searchLE(xs, c.y, fless); got != c.want {
			t.Errorf("searchLE(%v) = %d, want %d", c.y, got, c.want)
		}
	}
}

func TestSearchLT(t *testing.T) {
	xs := []float64{1, 2, 2, 2, 5, 8}
	cases := []struct {
		y    float64
		want int
	}{
		{0, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 4}, {5, 4}, {8, 5}, {9, 6},
	}
	for _, c := range cases {
		if got := searchLT(xs, c.y, fless); got != c.want {
			t.Errorf("searchLT(%v) = %d, want %d", c.y, got, c.want)
		}
	}
}

func TestSearchEmptySlice(t *testing.T) {
	if searchLE(nil, 1.0, fless) != 0 || searchLT(nil, 1.0, fless) != 0 {
		t.Fatal("search on empty slice must return 0")
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	f := func(xs []float64, y float64) bool {
		sortSlice(xs, fless)
		le, lt := 0, 0
		for _, x := range xs {
			if x <= y {
				le++
			}
			if x < y {
				lt++
			}
		}
		return searchLE(xs, y, fless) == le && searchLT(xs, y, fless) == lt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !isSorted([]float64{1, 2, 3}, fless) {
		t.Fatal("sorted slice reported unsorted")
	}
	if isSorted([]float64{2, 1}, fless) {
		t.Fatal("unsorted slice reported sorted")
	}
	if !isSorted([]float64{1, 1, 1}, fless) {
		t.Fatal("constant slice reported unsorted")
	}
	if !isSorted(nil, fless) {
		t.Fatal("nil slice reported unsorted")
	}
}

func BenchmarkSortSlice(b *testing.B) {
	r := rng.New(1)
	const n = 1024
	base := make([]float64, n)
	for i := range base {
		base[i] = r.Float64()
	}
	xs := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, base)
		sortSlice(xs, fless)
	}
}

func BenchmarkSortSliceStdlib(b *testing.B) {
	r := rng.New(1)
	const n = 1024
	base := make([]float64, n)
	for i := range base {
		base[i] = r.Float64()
	}
	xs := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, base)
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	}
}
