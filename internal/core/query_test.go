package core

import (
	"math"
	"testing"

	"req/internal/rng"
)

func TestRankInclusiveVsExclusive(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.1, Delta: 0.1})
	for _, v := range []float64{1, 2, 2, 2, 3} {
		s.Update(v)
	}
	if got := s.Rank(2); got != 4 {
		t.Fatalf("inclusive Rank(2) = %d, want 4", got)
	}
	if got := s.RankExclusive(2); got != 1 {
		t.Fatalf("exclusive Rank(2) = %d, want 1", got)
	}
	if got := s.Rank(0.5); got != 0 {
		t.Fatalf("Rank below min = %d", got)
	}
	if got := s.Rank(10); got != 5 {
		t.Fatalf("Rank above max = %d, want n", got)
	}
}

func TestRankMonotonicity(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 101})
	feedPerm(t, s, 1<<17, 102)
	prev := uint64(0)
	for y := -10.0; y < float64(1<<17)+10; y += 997 {
		got := s.Rank(y)
		if got < prev {
			t.Fatalf("rank decreased at y=%v: %d < %d", y, got, prev)
		}
		prev = got
	}
}

func TestViewMatchesDirectRank(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 103})
	feedPerm(t, s, 1<<16, 104)
	v := s.sortedView()
	r := rng.New(105)
	for i := 0; i < 500; i++ {
		y := r.Float64() * float64(1<<16)
		if v.Rank(y) != s.Rank(y) {
			t.Fatalf("view rank %d != direct rank %d at y=%v", v.Rank(y), s.Rank(y), y)
		}
		if v.RankExclusive(y) != s.RankExclusive(y) {
			t.Fatalf("view exclusive rank mismatch at y=%v", y)
		}
	}
}

func TestViewCachedAndInvalidated(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.1, Delta: 0.1, Seed: 106})
	feedPerm(t, s, 10000, 107)
	v1 := s.sortedView()
	v2 := s.sortedView()
	if v1 != v2 {
		t.Fatal("view not kept in the Work across calls")
	}
	weight1 := v1.Count()
	rankBefore := s.Rank(0.25)
	s.Update(0.5)
	v3 := s.sortedView()
	if v3 != v1 {
		// The rebuild recycles the previous view's storage by design; the
		// returned object is the same, refreshed in place.
		t.Fatal("view storage not recycled across rebuilds")
	}
	if v3.Count() != weight1+1 {
		t.Fatalf("stale weight in refreshed view: %d vs %d", v3.Count(), weight1)
	}
	if got := v3.Rank(0.25); got != rankBefore {
		t.Fatalf("rebuilt view rank %d != pre-update rank %d", got, rankBefore)
	}
}

func TestViewCumulativeWeights(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 108})
	feedPerm(t, s, 1<<16, 109)
	v := s.sortedView()
	items, cum := v.Items(), v.CumulativeWeights()
	if len(items) != len(cum) || len(items) != v.Size() {
		t.Fatal("view slices inconsistent")
	}
	if !isSorted(items, fless) {
		t.Fatal("view items not sorted")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] <= cum[i-1] {
			t.Fatalf("cumulative weights not strictly increasing at %d", i)
		}
	}
	if cum[len(cum)-1] != v.Count() {
		t.Fatalf("last cumulative weight %d != total %d", cum[len(cum)-1], v.Count())
	}
}

func TestQuantileRankDuality(t *testing.T) {
	// For any φ, Rank(Quantile(φ)) must be ≥ ⌈φ·n⌉ and Quantile must be the
	// smallest retained item with that property.
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 110})
	feedPerm(t, s, 1<<16, 111)
	v := s.sortedView()
	n := float64(s.Count())
	for _, phi := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		q, err := s.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		target := uint64(math.Ceil(phi * n))
		if got := v.Rank(q); got < target {
			t.Fatalf("phi=%v: Rank(Quantile) = %d < target %d", phi, got, target)
		}
	}
}

func TestQuantileEndpoints(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 112})
	feedPerm(t, s, 1<<15, 113)
	q0, err := s.Quantile(0)
	if err != nil {
		t.Fatal(err)
	}
	mn, _ := s.Min()
	if q0 != mn {
		t.Fatalf("Quantile(0) = %v, want exact min %v", q0, mn)
	}
	q1, err := s.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	mx, _ := s.Max()
	if q1 != mx {
		t.Fatalf("Quantile(1) = %v, want exact max %v", q1, mx)
	}
}

func TestQuantileRejectsBadRank(t *testing.T) {
	s := newFloat64(t, Config{})
	s.Update(1)
	for _, phi := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(phi); err != ErrBadRank {
			t.Errorf("Quantile(%v) error = %v, want ErrBadRank", phi, err)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 114})
	feedPerm(t, s, 1<<16, 115)
	prev := math.Inf(-1)
	for phi := 0.0; phi <= 1.0; phi += 0.001 {
		q, err := s.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if q < prev {
			t.Fatalf("quantile decreased at phi=%v: %v < %v", phi, q, prev)
		}
		prev = q
	}
}

func TestQuantilesBatch(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 116})
	feedPerm(t, s, 1<<14, 117)
	phis := []float64{0.1, 0.5, 0.9}
	qs, err := s.Quantiles(phis)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != len(phis) {
		t.Fatalf("got %d quantiles", len(qs))
	}
	for i, phi := range phis {
		single, _ := s.Quantile(phi)
		if qs[i] != single {
			t.Fatalf("batch quantile %v != single %v at phi=%v", qs[i], single, phi)
		}
	}
	if _, err := s.Quantiles([]float64{0.5, 2}); err == nil {
		t.Fatal("batch with invalid rank accepted")
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// On a permutation of 0..n−1, the φ-quantile should be ≈ φ·n within
	// relative error ε of the rank.
	const n = 1 << 17
	const eps = 0.05
	s := newFloat64(t, Config{Eps: eps, Delta: 0.01, Seed: 118})
	feedPerm(t, s, n, 119)
	for _, phi := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		q, err := s.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		wantRank := phi * n
		rel := math.Abs(q+1-wantRank) / wantRank
		if rel > eps+0.01 {
			t.Errorf("phi=%v: quantile %v (rank %v), rel %.4f", phi, q, q+1, rel)
		}
	}
}

func TestCDF(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 120})
	const n = 1 << 16
	feedPerm(t, s, n, 121)
	splits := []float64{float64(n) * 0.25, float64(n) * 0.5, float64(n) * 0.75}
	cdf, err := s.CDF(splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdf) != 4 {
		t.Fatalf("CDF length %d", len(cdf))
	}
	if cdf[3] != 1 {
		t.Fatalf("CDF tail = %v, want 1", cdf[3])
	}
	for i, want := range []float64{0.25, 0.5, 0.75} {
		if math.Abs(cdf[i]-want) > 0.05 {
			t.Errorf("CDF[%d] = %v, want ≈%v", i, cdf[i], want)
		}
		if i > 0 && cdf[i] < cdf[i-1] {
			t.Errorf("CDF not monotone at %d", i)
		}
	}
}

func TestCDFRejectsUnsortedSplits(t *testing.T) {
	s := newFloat64(t, Config{})
	s.Update(1)
	nan := math.NaN()
	for _, splits := range [][]float64{{2, 1}, {100, nan, 500}, {nan}} {
		if _, err := s.CDF(splits); err == nil {
			t.Fatalf("splits %v accepted", splits)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	s := newFloat64(t, Config{})
	if _, err := s.CDF([]float64{1}); err != ErrEmpty {
		t.Fatalf("CDF on empty: %v", err)
	}
}

func TestPMF(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 122})
	const n = 1 << 16
	feedPerm(t, s, n, 123)
	splits := []float64{float64(n) * 0.5}
	pmf, err := s.PMF(splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(pmf) != 2 {
		t.Fatalf("PMF length %d", len(pmf))
	}
	total := 0.0
	for _, p := range pmf {
		if p < 0 {
			t.Fatalf("negative PMF mass %v", p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", total)
	}
	if math.Abs(pmf[0]-0.5) > 0.05 {
		t.Fatalf("PMF[0] = %v, want ≈0.5", pmf[0])
	}
}

func TestViewQuantileClampsTarget(t *testing.T) {
	s := newFloat64(t, Config{})
	s.Update(3)
	s.Update(1)
	s.Update(2)
	v := s.sortedView()
	q, err := v.Quantile(1e-12) // target rounds to 0, must clamp to 1
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Fatalf("tiny-phi quantile = %v, want 1", q)
	}
}

func TestHRAQueriesUseCallerOrder(t *testing.T) {
	// Regardless of internal reversal, Rank and Quantile must behave
	// identically in expectation to the LRA sketch on the same data.
	cfgH := Config{Eps: 0.05, Delta: 0.05, Seed: 124, HRA: true}
	s := newFloat64(t, cfgH)
	const n = 1 << 16
	feedPerm(t, s, n, 125)
	if got := s.Rank(float64(n - 1)); got != n {
		t.Fatalf("HRA Rank(max) = %d, want n=%d", got, n)
	}
	if got := s.Rank(-1); got != 0 {
		t.Fatalf("HRA Rank below min = %d", got)
	}
	prev := uint64(0)
	for y := 0.0; y < n; y += 1024 {
		r := s.Rank(y)
		if r < prev {
			t.Fatal("HRA rank not monotone in caller order")
		}
		prev = r
	}
	// Tail accuracy: high ranks should be near-exact.
	for _, back := range []int{1, 10, 100} {
		y := float64(n - back)
		want := float64(n - back + 1)
		got := float64(s.Rank(y))
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("HRA tail rank at %v: got %v want %v", y, got, want)
		}
	}
}
