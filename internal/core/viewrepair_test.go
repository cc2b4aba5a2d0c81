package core

import (
	"math"
	"testing"

	"req/internal/rng"
)

// Tests for view rebuilds into recycled storage: every sortedView re-runs
// the k-way merge into the arrays of the previous view.
// Every such view must be indistinguishable (same items, same answers) from
// a from-scratch build into fresh storage.

// checkViewAgainstScratch compares the sketch's Work view to a view built
// from scratch on a clone: identical items and identical answers at every
// retained item and at synthetic probes around them.
func checkViewAgainstScratch(t *testing.T, s *Sketch[float64]) {
	t.Helper()
	v := s.sortedView()
	fresh := s.Clone().sortedView()
	if v.Count() != fresh.Count() {
		t.Fatalf("recycled view weight %d != from-scratch %d", v.Count(), fresh.Count())
	}
	if len(v.Items()) != len(fresh.Items()) {
		t.Fatalf("recycled view has %d items, from-scratch %d", len(v.Items()), len(fresh.Items()))
	}
	for i := range v.Items() {
		if v.Items()[i] != fresh.Items()[i] {
			t.Fatalf("item %d: recycled %v, from-scratch %v", i, v.Items()[i], fresh.Items()[i])
		}
	}
	for _, y := range v.Items() {
		if v.Rank(y) != fresh.Rank(y) {
			t.Fatalf("recycled Rank(%v) = %d, from-scratch %d", y, v.Rank(y), fresh.Rank(y))
		}
		if v.Rank(y-0.5) != fresh.Rank(y-0.5) {
			t.Fatalf("recycled Rank(%v) = %d, from-scratch %d", y-0.5, v.Rank(y-0.5), fresh.Rank(y-0.5))
		}
	}
	for _, phi := range []float64{1e-9, 0.01, 0.33, 0.5, 0.77, 0.99, 1} {
		a, errA := v.Quantile(phi)
		b, errB := fresh.Quantile(phi)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("recycled Quantile(%v) = %v/%v, from-scratch %v/%v", phi, a, errA, b, errB)
		}
	}
}

func TestViewTailRepairMatchesRebuild(t *testing.T) {
	for _, hra := range []bool{false, true} {
		name := "lra"
		if hra {
			name = "hra"
		}
		t.Run(name, func(t *testing.T) {
			s := newFloat64(t, Config{Eps: 0.1, Delta: 0.1, Seed: 900, HRA: hra})
			r := rng.New(901)
			// Warm the view, then interleave small write bursts with view
			// builds: bursts that only append and bursts that compact both
			// rebuild into the recycled storage.
			for i := 0; i < 4000; i++ {
				s.Update(math.Floor(r.Float64() * 1000)) // duplicates likely
			}
			s.sortedView()
			for _, burst := range []int{1, 1, 2, 3, 7, 1, 16, 64, 1, 200, 1} {
				for i := 0; i < burst; i++ {
					s.Update(math.Floor(r.Float64() * 1000))
				}
				checkViewAgainstScratch(t, s)
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestViewRepairFallsBackOnStructuralChange(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.1, Delta: 0.1, Seed: 902})
	r := rng.New(903)
	for i := 0; i < 5000; i++ {
		s.Update(r.Float64())
	}
	s.sortedView()

	// A weighted update writes into levels above 0.
	if err := s.UpdateWeighted(0.5, 12); err != nil {
		t.Fatal(err)
	}
	checkViewAgainstScratch(t, s)

	// A full buffer's worth of updates forces a compaction.
	s.sortedView()
	for i := 0; i < s.BufferCapacity()+4; i++ {
		s.Update(r.Float64())
	}
	checkViewAgainstScratch(t, s)

	// A reset sketch builds its empty view, then its next stream's, into
	// the recycled storage.
	s.Reset()
	checkViewAgainstScratch(t, s)
	for i := 0; i < 100; i++ {
		s.Update(r.Float64())
	}
	checkViewAgainstScratch(t, s)
}

func TestViewRepairAcrossBatchAndMerge(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.1, Delta: 0.1, Seed: 904})
	r := rng.New(905)
	buf := make([]float64, 0, 64)
	for i := 0; i < 3000; i++ {
		s.Update(r.Float64())
	}
	s.sortedView()
	for round := 0; round < 12; round++ {
		buf = buf[:0]
		for i := 0; i < 1+round*3; i++ {
			buf = append(buf, r.Float64())
		}
		s.UpdateBatch(buf)
		checkViewAgainstScratch(t, s)
	}
	// Merge reorders every level; the next build must still be right.
	other := newFloat64(t, Config{Eps: 0.1, Delta: 0.1, Seed: 906})
	for i := 0; i < 2000; i++ {
		other.Update(r.Float64())
	}
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	checkViewAgainstScratch(t, s)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// scanRanks returns the inclusive and exclusive ranks of y by a linear scan
// of the view's items and weights: the reference its searches must match.
func scanRanks(v *View[float64], y float64) (le, lt uint64) {
	for i, x := range v.Items() {
		if !(y < x) {
			le += v.Weight(i)
		}
		if x < y {
			lt += v.Weight(i)
		}
	}
	return le, lt
}

// scanQuantile returns the φ-quantile by a linear scan of the view's
// cumulative weights.
func scanQuantile(v *View[float64], phi float64) float64 {
	switch phi {
	case 0:
		return v.min
	case 1:
		return v.max
	}
	target := quantileTarget(phi, v.n)
	for i, c := range v.CumulativeWeights() {
		if c >= target {
			return v.Items()[i]
		}
	}
	return v.max
}

func TestViewSearchEdgeCases(t *testing.T) {
	// Empty sketch: every rank is 0.
	s := newFloat64(t, Config{})
	v := s.sortedView()
	if v.Rank(1) != 0 || v.RankExclusive(1) != 0 {
		t.Fatal("empty view rank != 0")
	}

	// Single item.
	s.Update(5)
	v = s.sortedView()
	for _, tc := range []struct {
		y            float64
		rank, rankEx uint64
	}{{4, 0, 0}, {5, 1, 0}, {6, 1, 1}} {
		if got := v.Rank(tc.y); got != tc.rank {
			t.Errorf("Rank(%v) = %d, want %d", tc.y, got, tc.rank)
		}
		if got := v.RankExclusive(tc.y); got != tc.rankEx {
			t.Errorf("RankExclusive(%v) = %d, want %d", tc.y, got, tc.rankEx)
		}
	}

	// Heavy duplicates at several sizes (including powers of two and their
	// neighbours) — the searches must match a linear scan of the view.
	for _, n := range []int{2, 3, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025} {
		s := newFloat64(t, Config{Eps: 0.1, Delta: 0.1, Seed: uint64(n)})
		r := rng.New(uint64(n) * 7)
		for i := 0; i < n; i++ {
			s.Update(math.Floor(r.Float64() * 10))
		}
		v := s.sortedView()
		for y := -1.0; y <= 11; y += 0.5 {
			le, lt := scanRanks(v, y)
			if got, want := v.Rank(y), le; got != want {
				t.Fatalf("n=%d: Rank(%v) = %d, linear scan %d", n, y, got, want)
			}
			if got, want := v.RankExclusive(y), lt; got != want {
				t.Fatalf("n=%d: RankExclusive(%v) = %d, linear scan %d", n, y, got, want)
			}
		}
		for phi := 0.0; phi <= 1.0; phi += 1.0 / 64 {
			q, err := v.Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			if want := scanQuantile(v, phi); q != want {
				t.Fatalf("n=%d: Quantile(%v) = %v, linear scan %v", n, phi, q, want)
			}
		}
	}
}

func TestBatchQueryEdgeCases(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.1, Delta: 0.1, Seed: 910})

	// Empty sketch: ranks are all zero, quantiles error, empty phis do not.
	ranks := s.RankBatch(nil, []float64{1, 2, 3})
	for i, r := range ranks {
		if r != 0 {
			t.Fatalf("empty-sketch RankBatch[%d] = %d", i, r)
		}
	}
	if qs, err := s.QuantilesInto(nil, nil); err != nil || len(qs) != 0 {
		t.Fatalf("empty phis: %v, %v", qs, err)
	}
	if _, err := s.QuantilesInto(nil, []float64{0.5}); err != ErrEmpty {
		t.Fatalf("empty sketch QuantilesInto: %v", err)
	}
	if _, err := s.CDFInto(nil, []float64{1}); err != ErrEmpty {
		t.Fatalf("empty sketch CDFInto: %v", err)
	}

	r := rng.New(911)
	for i := 0; i < 10000; i++ {
		s.Update(r.Float64() * 100)
	}

	// Error propagation.
	if _, err := s.QuantilesInto(nil, []float64{0.5, math.NaN()}); err != ErrBadRank {
		t.Fatalf("NaN phi: %v", err)
	}
	if _, err := s.QuantilesInto(nil, []float64{0.5, -0.1}); err != ErrBadRank {
		t.Fatalf("negative phi: %v", err)
	}
	if _, err := s.CDFInto(nil, []float64{2, 1}); err == nil {
		t.Fatal("unsorted splits accepted")
	}

	// dst reuse: a too-small destination grows, a roomy one is resliced.
	small := make([]uint64, 1)
	out := s.RankBatch(small, []float64{1, 2, 3})
	if len(out) != 3 {
		t.Fatalf("grown dst has length %d", len(out))
	}
	roomy := make([]uint64, 0, 64)
	out = s.RankBatch(roomy, []float64{1, 2, 3})
	if len(out) != 3 || cap(out) != 64 {
		t.Fatalf("roomy dst not reused: len=%d cap=%d", len(out), cap(out))
	}

	// Batch answers equal single answers for sorted, reversed, and random
	// probe orders (PMFInto included).
	probes := make([]float64, 257)
	for i := range probes {
		probes[i] = r.Float64()*110 - 5
	}
	for name, ys := range map[string][]float64{
		"random":   probes,
		"sorted":   sortedCopy(probes),
		"reversed": reversedCopy(probes),
	} {
		got := s.RankBatch(nil, ys)
		for i, y := range ys {
			if want := s.Rank(y); got[i] != want {
				t.Fatalf("%s: RankBatch[%d] = %d, single %d", name, i, got[i], want)
			}
		}
	}
	splits := sortedCopy(probes)
	pmf, err := s.PMFInto(nil, splits)
	if err != nil {
		t.Fatal(err)
	}
	pmfOld, err := s.PMF(splits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pmf {
		if pmf[i] != pmfOld[i] {
			t.Fatalf("PMFInto[%d] = %v, PMF %v", i, pmf[i], pmfOld[i])
		}
	}
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sortSlice(out, fless)
	return out
}

func reversedCopy(xs []float64) []float64 {
	out := sortedCopy(xs)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
