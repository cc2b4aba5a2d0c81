package core

import (
	"sort"
	"testing"

	"req/internal/rng"
)

func TestMergeSortedIntoRandom(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 500; trial++ {
		m, e := r.Intn(200), r.Intn(200)
		dst := make([]float64, m, m+e)
		add := make([]float64, e)
		for i := range dst {
			dst[i] = float64(r.Intn(50))
		}
		for i := range add {
			add[i] = float64(r.Intn(50))
		}
		sort.Float64s(dst)
		sort.Float64s(add)
		want := append(append([]float64(nil), dst...), add...)
		sort.Float64s(want)
		got := mergeSortedInto(dst, add, fless)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMergeSortedIntoExtremes(t *testing.T) {
	// add entirely above dst: the fast path (no element moves).
	got := mergeSortedInto([]float64{1, 2, 3}, []float64{4, 5}, fless)
	for i, w := range []float64{1, 2, 3, 4, 5} {
		if got[i] != w {
			t.Fatalf("above: got %v", got)
		}
	}
	// add entirely below dst: one long gallop run.
	got = mergeSortedInto([]float64{10, 11, 12}, []float64{1, 2}, fless)
	for i, w := range []float64{1, 2, 10, 11, 12} {
		if got[i] != w {
			t.Fatalf("below: got %v", got)
		}
	}
	// empty operands.
	if got = mergeSortedInto(nil, nil, fless); len(got) != 0 {
		t.Fatal("nil/nil")
	}
	if got = mergeSortedInto([]float64{1}, nil, fless); len(got) != 1 || got[0] != 1 {
		t.Fatal("dst/nil")
	}
	if got = mergeSortedInto(nil, []float64{1}, fless); len(got) != 1 || got[0] != 1 {
		t.Fatal("nil/add")
	}
	// duplicates everywhere.
	got = mergeSortedInto([]float64{2, 2, 2}, []float64{2, 2}, fless)
	if len(got) != 5 {
		t.Fatalf("dups: got %v", got)
	}
}

func TestCountDescSearches(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(30))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(xs))) // descending
		y := float64(r.Intn(32) - 1)
		wantLE, wantLT := 0, 0
		for _, x := range xs {
			if x <= y {
				wantLE++
			}
			if x < y {
				wantLT++
			}
		}
		if got := countLEDesc(xs, y, fless); got != wantLE {
			t.Fatalf("countLEDesc(%v, %v) = %d, want %d", xs, y, got, wantLE)
		}
		if got := countLTDesc(xs, y, fless); got != wantLT {
			t.Fatalf("countLTDesc(%v, %v) = %d, want %d", xs, y, got, wantLT)
		}
	}
}

func TestSortedPrefixLen(t *testing.T) {
	cases := []struct {
		xs   []float64
		want int
	}{
		{nil, 0},
		{[]float64{1}, 1},
		{[]float64{1, 2, 3}, 3},
		{[]float64{1, 1, 1}, 3},
		{[]float64{3, 2, 1}, 1},
		{[]float64{1, 2, 1, 4}, 2},
	}
	for _, tc := range cases {
		if got := extendRun(tc.xs, 0, fless); got != tc.want {
			t.Errorf("extendRun(%v, 0) = %d, want %d", tc.xs, got, tc.want)
		}
	}
}

func TestSettleLevelMergesTail(t *testing.T) {
	s := mkSketch(t, 4, true)
	loadLevel0(s, 1, 3, 5, 7, 6, 2, 4)
	s.levels[0].sorted = 4
	s.settleLevel(0)
	lv := &s.levels[0]
	if lv.sorted != len(lv.buf) || !isSorted(lv.buf, fless) {
		t.Fatalf("settle failed: %v (sorted=%d)", lv.buf, lv.sorted)
	}
	// Idempotent.
	before := append([]float64(nil), lv.buf...)
	s.settleLevel(0)
	for i, v := range s.levels[0].buf {
		if before[i] != v {
			t.Fatal("settle not idempotent")
		}
	}
}
