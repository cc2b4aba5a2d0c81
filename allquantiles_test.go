package req

import (
	"math"
	"testing"

	"req/internal/exact"
	"req/internal/rng"
)

func TestAllQuantilesOptionsConstruct(t *testing.T) {
	s, err := NewFloat64(AllQuantiles(0.05, 0.05, 1<<20)...)
	if err != nil {
		t.Fatal(err)
	}
	// ε′ = ε/3.
	if math.Abs(s.Epsilon()-0.05/3) > 1e-12 {
		t.Fatalf("eps' = %v", s.Epsilon())
	}
	if s.Delta() >= 0.05 {
		t.Fatalf("delta' = %v not reduced", s.Delta())
	}
}

func TestAllQuantilesExtremeArgsStillConstruct(t *testing.T) {
	// Gigantic nHint and tiny delta must clamp, not error.
	if _, err := NewFloat64(AllQuantiles(0.01, 1e-6, math.MaxUint64)...); err != nil {
		t.Fatal(err)
	}
}

func TestAllQuantilesSimultaneousGuarantee(t *testing.T) {
	// With the Corollary 1 sizing, EVERY power-of-two rank must be within
	// the original ε simultaneously, across several seeds.
	const n = 1 << 16
	const eps = 0.1
	for seed := uint64(0); seed < 6; seed++ {
		opts := append(AllQuantiles(eps, 0.05, n), WithSeed(seed))
		s, err := NewFloat64(opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed + 100)
		for _, v := range r.Perm(n) {
			s.Update(float64(v))
		}
		for rank := 1; rank <= n; rank *= 2 {
			est := float64(s.Rank(float64(rank - 1)))
			rel := math.Abs(est-float64(rank)) / float64(rank)
			if rel > eps {
				t.Fatalf("seed %d rank %d: rel %.4f > ε", seed, rank, rel)
			}
		}
	}
}

// TestAllQuantilesRejectsBadArgs: arguments out of range fail the
// constructor, though the ε′ = ε/3 and δ′ derived from them would pass it.
func TestAllQuantilesRejectsBadArgs(t *testing.T) {
	for _, c := range []struct{ e, d float64 }{{1.5, 0.05}, {2.9, 0.05}, {0.01, 0.9}} {
		if _, err := NewFloat64(AllQuantiles(c.e, c.d, 1<<20)...); err == nil {
			t.Errorf("AllQuantiles(%v, %v) constructed a sketch", c.e, c.d)
		}
	}
}

func TestValidateAllQuantilesArgs(t *testing.T) {
	if err := validateAllQuantilesArgs(0.1, 0.1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ e, d float64 }{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 0.7}, {math.NaN(), 0.1}, {0.1, math.NaN()}} {
		if err := validateAllQuantilesArgs(c.e, c.d); err == nil {
			t.Errorf("args (%v, %v) accepted", c.e, c.d)
		}
	}
}

// TestRankBounds checks RankBounds against the exact oracle at every
// power-of-two rank r and its mirror n − r, under both rank-accuracy
// modes, with the per-item sizing of WithEpsilon and with AllQuantiles'
// simultaneous sizing: every interval must hold the true rank and lie
// within [0, n]. High-rank accuracy bounds the error by ε·(n − R), not
// ε·R, so its interval differs at every rank below n.
func TestRankBounds(t *testing.T) {
	const n = 1 << 16
	const eps = 0.05
	vals := permStream(n, 8)
	oracle := exact.FromValues(vals)
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"LRA", nil},
		{"HRA", []Option{WithHighRankAccuracy()}},
	} {
		for _, sizing := range []struct {
			name string
			opts []Option
		}{
			{"per-item", []Option{WithEpsilon(eps)}},
			{"all-quantiles", AllQuantiles(eps, 0.05, n)},
		} {
			t.Run(mode.name+"/"+sizing.name, func(t *testing.T) {
				opts := append(append([]Option{WithSeed(7)}, mode.opts...), sizing.opts...)
				s := mustFloat64(t, opts...)
				s.UpdateBatch(vals)
				for r := uint64(1); r < n; r *= 2 {
					for _, rank := range []uint64{r, n - r} {
						y := oracle.ItemOfRank(rank)
						truth := oracle.Rank(y)
						lo, hi := s.RankBounds(y)
						if lo > hi || hi > s.Count() {
							t.Fatalf("rank %d: bounds [%d, %d] inverted or past n = %d", rank, lo, hi, s.Count())
						}
						if truth < lo || truth > hi {
							t.Errorf("true rank %d outside bounds [%d, %d] (estimate %d)", truth, lo, hi, s.Rank(y))
						}
					}
				}
			})
		}
	}
}

func TestRankBoundsEmpty(t *testing.T) {
	s := mustFloat64(t)
	lo, hi := s.RankBounds(5)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty bounds = [%d, %d]", lo, hi)
	}
}

func TestEpsilonDeltaAccessors(t *testing.T) {
	s := mustFloat64(t, WithEpsilon(0.07), WithDelta(0.03))
	if s.Epsilon() != 0.07 || s.Delta() != 0.03 {
		t.Fatalf("accessors: %v, %v", s.Epsilon(), s.Delta())
	}
}
