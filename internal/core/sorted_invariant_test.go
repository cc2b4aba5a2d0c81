package core

// Property tests for the sorted-compactor invariant: buf[:sorted] is sorted
// under the internal order at every level, at rest, after every mutating
// operation the engine supports. CheckInvariants enforces the invariant
// (invariant 8), so these tests drive random operation sequences and call it
// after each step.

import (
	"math"
	"testing"

	"req/internal/rng"
)

// checkAll asserts the structural invariants and that queries see every
// level consistently (spot-check: Rank(max) must equal n).
func checkAll(t *testing.T, tag string, s *Sketch[float64]) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if s.n > 0 {
		mx, _ := s.Max()
		if got := s.Rank(mx); got != s.n {
			t.Fatalf("%s: Rank(max) = %d, want n = %d", tag, got, s.n)
		}
	}
}

func TestPropertySortedInvariantSurvivesOps(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed * 0x9e3779b97f4a7c15)
		cfg := Config{Eps: 0.1, Delta: 0.1, N0: 1 << 8, Seed: seed}
		s, err := New(fless, cfg)
		if err != nil {
			t.Fatal(err)
		}
		val := func() float64 { return math.Floor(r.Float64() * 1e4) }
		for op := 0; op < 400; op++ {
			switch r.Intn(10) {
			case 0, 1, 2: // single updates (may cross growth boundaries)
				for i, m := 0, 1+r.Intn(64); i < m; i++ {
					s.Update(val())
				}
				checkAll(t, "Update", s)
			case 3, 4, 5: // batch updates of varied size
				batch := make([]float64, r.Intn(700))
				for i := range batch {
					batch[i] = val()
				}
				s.UpdateBatch(batch)
				checkAll(t, "UpdateBatch", s)
			case 6: // weighted updates leave tails on upper levels
				if err := s.UpdateWeighted(val(), 1+uint64(r.Intn(5000))); err != nil {
					t.Fatal(err)
				}
				checkAll(t, "UpdateWeighted", s)
			case 7: // merge a second sketch in (exercises growth + cascade)
				ocfg := cfg
				ocfg.Seed = seed + 1000
				o, err := New(fless, ocfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := 0, r.Intn(2000); i < m; i++ {
					o.Update(val())
				}
				if err := s.Merge(o); err != nil {
					t.Fatal(err)
				}
				checkAll(t, "Merge", s)
			case 8: // clone, then serde round-trip
				c := s.Clone()
				checkAll(t, "Clone", c)
				rt, err := FromSnapshot(fless, s.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				checkAll(t, "FromSnapshot", rt)
				// The restored sketch keeps ingesting without violating the
				// invariant (snapshots may carry an unsorted level-0 tail).
				rt.Update(val())
				checkAll(t, "FromSnapshot+Update", rt)
			case 9: // view build settles tails; occasionally reset
				_ = s.sortedView()
				checkAll(t, "sortedView", s)
				if r.Intn(8) == 0 {
					s.Reset()
					checkAll(t, "Reset", s)
				}
			}
		}
	}
}

// TestUpdateBatchBitIdenticalWithoutGrowth: when no stream-length growth
// lands mid-batch, UpdateBatch is bit-for-bit the same machine as per-item
// Update — same buffers in the same order, same sorted prefixes, same coin
// stream position.
func TestUpdateBatchBitIdenticalWithoutGrowth(t *testing.T) {
	cfg := Config{Eps: 0.05, Delta: 0.05, N0: 1 << 20, Seed: 99}
	a, err := New(fless, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(fless, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123)
	for round := 0; round < 50; round++ {
		batch := make([]float64, r.Intn(5000))
		for i := range batch {
			batch[i] = math.Floor(r.Float64() * 1e5)
		}
		for _, v := range batch {
			a.Update(v)
		}
		b.UpdateBatch(batch)
		if a.rnd.State() != b.rnd.State() {
			t.Fatalf("round %d: coin streams diverged", round)
		}
		if a.Count() != b.Count() || a.NumLevels() != b.NumLevels() {
			t.Fatalf("round %d: shape diverged", round)
		}
		for h := range a.levels {
			la, lb := &a.levels[h], &b.levels[h]
			if la.sorted != lb.sorted || len(la.buf) != len(lb.buf) || la.state != lb.state {
				t.Fatalf("round %d level %d: prefix/len/state diverged (%d/%d/%b vs %d/%d/%b)",
					round, h, la.sorted, len(la.buf), la.state, lb.sorted, len(lb.buf), lb.state)
			}
			for i := range la.buf {
				if la.buf[i] != lb.buf[i] {
					t.Fatalf("round %d level %d item %d: %v vs %v", round, h, i, la.buf[i], lb.buf[i])
				}
			}
		}
	}
}

// Across a growth boundary the batch path may square the bound one chunk
// early; the invariants and the accuracy-bearing structure must still hold,
// and min/max/count must match the per-item path exactly.
func TestUpdateBatchAcrossGrowth(t *testing.T) {
	cfg := Config{Eps: 0.1, Delta: 0.1, N0: 1 << 8, Seed: 5}
	a, err := New(fless, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(fless, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(321)
	stream := make([]float64, 200000)
	for i := range stream {
		stream[i] = r.Float64()
	}
	for _, v := range stream {
		a.Update(v)
	}
	b.UpdateBatch(stream)
	checkAll(t, "batch across growth", b)
	if a.Count() != b.Count() {
		t.Fatalf("count: %d vs %d", a.Count(), b.Count())
	}
	amn, _ := a.Min()
	bmn, _ := b.Min()
	amx, _ := a.Max()
	bmx, _ := b.Max()
	if amn != bmn || amx != bmx {
		t.Fatalf("min/max diverged: (%v,%v) vs (%v,%v)", amn, amx, bmn, bmx)
	}
	if a.Bound() != b.Bound() {
		t.Fatalf("bound: %d vs %d", a.Bound(), b.Bound())
	}
	// Both paths carry the paper's guarantee; their estimates at mid ranks
	// must agree to within the (generous) combined error budget.
	for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
		qa, err := a.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := b.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(qa-qb) > 0.25*math.Max(qa, qb)+1e-9 {
			t.Fatalf("Quantile(%v) wildly diverged: %v vs %v", phi, qa, qb)
		}
	}
}

func TestUpdateBatchEdgeCases(t *testing.T) {
	s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch(nil)
	s.UpdateBatch([]float64{})
	if !s.Empty() {
		t.Fatal("empty batches changed the sketch")
	}
	s.UpdateBatch([]float64{42})
	if s.Count() != 1 {
		t.Fatalf("count = %d", s.Count())
	}
	if q, _ := s.Quantile(0.5); q != 42 {
		t.Fatalf("quantile = %v", q)
	}
	// A batch far larger than one buffer must cascade correctly.
	big := make([]float64, 100000)
	for i := range big {
		big[i] = float64(i)
	}
	s.UpdateBatch(big)
	if s.Count() != 100001 {
		t.Fatalf("count = %d", s.Count())
	}
	checkAll(t, "large batch", s)
	// Ascending ingest must leave level 0 fully sorted (no tail): the
	// sorted-prefix extension makes settle free for sorted streams.
	if lv := &s.levels[0]; lv.sorted != len(lv.buf) {
		t.Fatalf("ascending batch left a tail: sorted=%d len=%d", lv.sorted, len(lv.buf))
	}
}

// TestRankFrozenMatchesUnfrozen: the sorted view's ranks agree with the
// level search, Rank builds no view, and a built one does not change what
// Rank answers.
func TestRankFrozenMatchesUnfrozen(t *testing.T) {
	s, err := New(fless, Config{Eps: 0.05, Delta: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for i := 0; i < 100000; i++ {
		s.Update(math.Floor(r.Float64() * 1e5))
	}
	probes := make([]float64, 64)
	for i := range probes {
		probes[i] = r.Float64() * 1e5
	}
	unfrozen := make([]uint64, len(probes))
	unfrozenEx := make([]uint64, len(probes))
	for i, y := range probes {
		unfrozen[i] = s.Rank(y)
		unfrozenEx[i] = s.RankExclusive(y)
	}
	if s.work.view.items != nil {
		t.Fatal("plain Rank must not build the view")
	}
	v := s.sortedView()
	for i, y := range probes {
		if got := v.Rank(y); got != unfrozen[i] {
			t.Fatalf("Rank(%v) frozen %d != unfrozen %d", y, got, unfrozen[i])
		}
		if got := v.RankExclusive(y); got != unfrozenEx[i] {
			t.Fatalf("RankExclusive(%v) frozen %d != unfrozen %d", y, got, unfrozenEx[i])
		}
		if s.Rank(y) != unfrozen[i] || s.RankExclusive(y) != unfrozenEx[i] {
			t.Fatalf("Rank(%v) moved once the view was built", y)
		}
	}
}

// HRA sketches store buffers descending in the caller's order; the
// descending binary searches must agree with a linear scan.
func TestRankBinarySearchHRA(t *testing.T) {
	s, err := New(fless, Config{Eps: 0.05, Delta: 0.05, Seed: 9, HRA: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	for i := 0; i < 60000; i++ {
		s.Update(math.Floor(r.Float64() * 1e4))
	}
	linear := func(y float64) (le, lt uint64) {
		for h := range s.levels {
			var cle, clt int
			for _, x := range s.levels[h].buf {
				if !s.kern.less(y, x) {
					cle++
				}
				if s.kern.less(x, y) {
					clt++
				}
			}
			le += uint64(cle) << uint(h)
			lt += uint64(clt) << uint(h)
		}
		return
	}
	for i := 0; i < 200; i++ {
		y := r.Float64() * 1.1e4
		le, lt := linear(y)
		if got := s.Rank(y); got != le {
			t.Fatalf("HRA Rank(%v) = %d, want %d", y, got, le)
		}
		if got := s.RankExclusive(y); got != lt {
			t.Fatalf("HRA RankExclusive(%v) = %d, want %d", y, got, lt)
		}
	}
}
