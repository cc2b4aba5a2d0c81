package core

import (
	"math"
	"testing"
	"testing/quick"

	"req/internal/rng"
)

// Property-based tests (testing/quick) over the sketch's structural
// invariants. Each property feeds arbitrary generated streams through the
// sketch and asserts an invariant that must hold for every input.

// boundedStream clamps quick-generated inputs into a usable stream: at most
// maxLen values, NaNs removed.
func boundedStream(raw []float64, maxLen int) []float64 {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	out := raw[:0]
	for _, v := range raw {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

func TestPropertyWeightConservation(t *testing.T) {
	f := func(raw []float64, seedByte uint8) bool {
		vals := boundedStream(raw, 4096)
		s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: uint64(seedByte)})
		if err != nil {
			return false
		}
		for _, v := range vals {
			s.Update(v)
		}
		var w uint64
		for h := range s.levels {
			w += uint64(len(s.levels[h].buf)) << uint(h)
		}
		return w == uint64(len(vals)) && s.Count() == uint64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInvariantsHold(t *testing.T) {
	f := func(raw []float64, seedByte uint8) bool {
		vals := boundedStream(raw, 4096)
		s, err := New(fless, Config{Eps: 0.2, Delta: 0.2, Seed: uint64(seedByte)})
		if err != nil {
			return false
		}
		for _, v := range vals {
			s.Update(v)
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRankMonotoneInY(t *testing.T) {
	f := func(raw []float64, a, b float64, seedByte uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		vals := boundedStream(raw, 2048)
		s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: uint64(seedByte)})
		if err != nil {
			return false
		}
		for _, v := range vals {
			s.Update(v)
		}
		lo, hi := a, b
		if hi < lo {
			lo, hi = hi, lo
		}
		return s.Rank(lo) <= s.Rank(hi) && s.RankExclusive(lo) <= s.RankExclusive(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRankBounds(t *testing.T) {
	// For every y: RankExclusive(y) ≤ Rank(y) ≤ n, and the extremes are
	// exact: Rank(max) = n, RankExclusive(min) = 0.
	f := func(raw []float64, y float64, seedByte uint8) bool {
		if math.IsNaN(y) {
			return true
		}
		vals := boundedStream(raw, 2048)
		if len(vals) == 0 {
			return true
		}
		s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: uint64(seedByte)})
		if err != nil {
			return false
		}
		for _, v := range vals {
			s.Update(v)
		}
		n := uint64(len(vals))
		if s.RankExclusive(y) > s.Rank(y) || s.Rank(y) > n {
			return false
		}
		mx, _ := s.Max()
		mn, _ := s.Min()
		return s.Rank(mx) == n && s.RankExclusive(mn) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuantileRankDuality(t *testing.T) {
	f := func(raw []float64, phiRaw float64, seedByte uint8) bool {
		vals := boundedStream(raw, 2048)
		if len(vals) == 0 {
			return true
		}
		phi := math.Abs(math.Mod(phiRaw, 1))
		if math.IsNaN(phi) {
			phi = 0.5
		}
		s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: uint64(seedByte)})
		if err != nil {
			return false
		}
		for _, v := range vals {
			s.Update(v)
		}
		q, err := s.Quantile(phi)
		if err != nil {
			return false
		}
		target := uint64(math.Ceil(phi * float64(len(vals))))
		if target == 0 {
			target = 1
		}
		return s.Rank(q) >= target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMergeEquivalentToConcat(t *testing.T) {
	// Merging two sketches yields a sketch with the combined count, valid
	// invariants, and exact min/max of the union.
	f := func(rawA, rawB []float64, seedByte uint8) bool {
		a := boundedStream(rawA, 2048)
		bvals := boundedStream(append([]float64(nil), rawB...), 2048)
		cfg := Config{Eps: 0.1, Delta: 0.1}
		s1, err := New(fless, withSeedCfg(cfg, uint64(seedByte)))
		if err != nil {
			return false
		}
		s2, err := New(fless, withSeedCfg(cfg, uint64(seedByte)+1))
		if err != nil {
			return false
		}
		for _, v := range a {
			s1.Update(v)
		}
		for _, v := range bvals {
			s2.Update(v)
		}
		if err := s1.Merge(s2); err != nil {
			return false
		}
		if s1.Count() != uint64(len(a)+len(bvals)) {
			return false
		}
		if s1.CheckInvariants() != nil {
			return false
		}
		if len(a)+len(bvals) == 0 {
			return true
		}
		wantMin, wantMax := math.Inf(1), math.Inf(-1)
		for _, v := range append(append([]float64(nil), a...), bvals...) {
			wantMin = math.Min(wantMin, v)
			wantMax = math.Max(wantMax, v)
		}
		gotMin, _ := s1.Min()
		gotMax, _ := s1.Max()
		return gotMin == wantMin && gotMax == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func withSeedCfg(cfg Config, seed uint64) Config {
	cfg.Seed = seed
	return cfg
}

func TestPropertySnapshotRoundTrip(t *testing.T) {
	f := func(raw []float64, seedByte uint8) bool {
		vals := boundedStream(raw, 2048)
		s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: uint64(seedByte)})
		if err != nil {
			return false
		}
		for _, v := range vals {
			s.Update(v)
		}
		r, err := FromSnapshot(fless, s.Snapshot())
		if err != nil {
			return false
		}
		if r.Count() != s.Count() || r.ItemsRetained() != s.ItemsRetained() {
			return false
		}
		// Ranks of a few probes must agree exactly.
		probes := []float64{-1e18, -1, 0, 1, 1e18}
		probes = append(probes, vals...)
		if len(probes) > 40 {
			probes = probes[:40]
		}
		for _, y := range probes {
			if r.Rank(y) != s.Rank(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyViewRepairEquivalence(t *testing.T) {
	// Under arbitrary interleavings of Update, UpdateBatch, UpdateWeighted,
	// live quantile reads and view-building queries, the Work's view
	// (rebuilt into recycled storage) answers identically to a view built
	// from scratch on a clone.
	f := func(ops []uint16, seedByte uint8) bool {
		s, err := New(fless, Config{Eps: 0.15, Delta: 0.15, Seed: uint64(seedByte)})
		if err != nil {
			return false
		}
		r := rng.New(uint64(seedByte) * 131)
		if len(ops) > 200 {
			ops = ops[:200]
		}
		batch := make([]float64, 0, 32)
		for _, op := range ops {
			switch op % 5 {
			case 0, 1:
				s.Update(math.Floor(r.Float64() * 50))
			case 2:
				batch = batch[:0]
				for i := 0; i < int(op%31); i++ {
					batch = append(batch, math.Floor(r.Float64()*50))
				}
				s.UpdateBatch(batch)
			case 3:
				if err := s.UpdateWeighted(math.Floor(r.Float64()*50), uint64(op%9)); err != nil {
					return false
				}
			case 4:
				if op%3 < 2 {
					s.sortedView()
				} else if _, err := s.Quantile(0.5); err != nil && s.Count() > 0 {
					return false
				}
			}
			if s.CheckInvariants() != nil {
				return false
			}
		}
		v := s.sortedView()
		fresh := s.Clone().sortedView()
		if v.Count() != fresh.Count() || len(v.Items()) != len(fresh.Items()) {
			return false
		}
		for i := range v.Items() {
			if v.Items()[i] != fresh.Items()[i] {
				return false
			}
		}
		for y := -1.0; y <= 51; y++ {
			if v.Rank(y) != fresh.Rank(y) || v.RankExclusive(y) != fresh.RankExclusive(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRetainedItemsAreStreamItems(t *testing.T) {
	// Every retained item must be an item that was actually inserted (the
	// sketch is comparison-based and never invents values).
	f := func(seed16 uint16) bool {
		seed := uint64(seed16)
		r := rng.New(seed)
		n := 2000 + r.Intn(3000)
		present := make(map[float64]bool, n)
		s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			v := math.Floor(r.Float64() * 1e6)
			present[v] = true
			s.Update(v)
		}
		for h := range s.levels {
			for _, x := range s.levels[h].buf {
				if !present[x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLowestRanksExact(t *testing.T) {
	// The protected bottom half guarantees zero error on the smallest
	// B/2-ranked items; in particular rank 1 is always exact.
	f := func(seed16 uint16) bool {
		seed := uint64(seed16)
		r := rng.New(seed)
		n := 5000 + r.Intn(20000)
		s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		for _, v := range r.Perm(n) {
			s.Update(float64(v))
		}
		return s.Rank(0) == 1 && s.Rank(1) == 2 && s.Rank(2) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
