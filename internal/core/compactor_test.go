package core

// White-box tests of the compaction machinery: emitHalf, compactLevel,
// specialCompactLevel, and the growth path, exercised directly rather than
// through long streams.

import (
	"testing"

	"req/internal/schedule"
)

// mkSketch builds a fixed-k sketch with a known geometry for surgical tests.
func mkSketch(t *testing.T, k int, detCoin bool) *Sketch[float64] {
	t.Helper()
	s, err := New(fless, Config{Mode: ModeFixedK, K: k, DetCoin: detCoin, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadLevel0 hand-loads level 0 with a copy of vals, leaving the sorted
// prefix at 0; n is not touched, so weight-conservation checks do not apply
// to hand-loaded sketches.
func loadLevel0(s *Sketch[float64], vals ...float64) {
	lv := &s.levels[0]
	s.retained += len(vals) - len(lv.buf)
	clear(lv.buf)
	lv.buf = append(lv.buf[:0], vals...)
	lv.sorted = 0
}

// ramp returns [lo, lo+1, …, hi-1] as float64s.
func ramp(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

func TestEmitHalfEvenRegion(t *testing.T) {
	s := mkSketch(t, 4, true)
	// Hand-load level 0 with 8 sorted items and emit everything above 4.
	loadLevel0(s, 1, 2, 3, 4, 5, 6, 7, 8)
	s.emitHalf(0, 4)
	if got := len(s.levels[0].buf); got != 4 {
		t.Fatalf("kept %d items, want 4", got)
	}
	if len(s.levels) < 2 {
		t.Fatal("no next level created")
	}
	next := s.levels[1].buf
	if len(next) != 2 {
		t.Fatalf("emitted %d items, want 2", len(next))
	}
	// DetCoin keeps even offsets: items 5 and 7.
	if next[0] != 5 || next[1] != 7 {
		t.Fatalf("emitted %v, want [5 7]", next)
	}
}

func TestEmitHalfOddRegionShrinks(t *testing.T) {
	s := mkSketch(t, 4, true)
	loadLevel0(s, 1, 2, 3, 4, 5, 6, 7)
	// keep=2 leaves an odd region of 5; the implementation must keep one
	// extra item so the compacted region is even.
	s.emitHalf(0, 2)
	if got := len(s.levels[0].buf); got != 3 {
		t.Fatalf("kept %d items, want 3 (odd adjustment)", got)
	}
	if got := len(s.levels[1].buf); got != 2 {
		t.Fatalf("emitted %d items, want 2", len(s.levels[1].buf))
	}
	// Weight conservation: 3·1 + 2·2 = 7 = original count.
}

func TestEmitHalfEmptyRegion(t *testing.T) {
	s := mkSketch(t, 4, true)
	loadLevel0(s, 1, 2)
	s.emitHalf(0, 2) // nothing above keep
	if len(s.levels[0].buf) != 2 {
		t.Fatal("empty region modified the buffer")
	}
}

func TestCompactLevelFollowsSchedule(t *testing.T) {
	s := mkSketch(t, 4, true)
	b := s.geom.b
	// Fill level 0 exactly to capacity with ascending values.
	loadLevel0(s, ramp(0, b)...)
	state0 := s.levels[0].state
	s.compactLevel(0)
	// First compaction: state 0 → 1 section compacted: k items consumed,
	// k/2 promoted.
	if s.levels[0].state != state0.Next() {
		t.Fatal("state not advanced")
	}
	if got := len(s.levels[0].buf); got != b-s.geom.k {
		t.Fatalf("kept %d, want %d", got, b-s.geom.k)
	}
	if got := len(s.levels[1].buf); got != s.geom.k/2 {
		t.Fatalf("promoted %d, want %d", got, s.geom.k/2)
	}
	// The compacted items must be the largest k (values b-k … b-1); the
	// promoted ones are every other of them.
	for _, v := range s.levels[1].buf {
		if v < float64(b-s.geom.k) {
			t.Fatalf("promoted item %v from protected zone", v)
		}
	}
}

func TestCompactLevelSecondCompactionTakesTwoSections(t *testing.T) {
	s := mkSketch(t, 4, true)
	b := s.geom.b
	fill := func() {
		vals := append([]float64(nil), s.levels[0].buf...)
		for len(vals) < b {
			vals = append(vals, float64(len(vals)))
		}
		loadLevel0(s, vals...)
	}
	fill()
	s.compactLevel(0) // state 0: 1 section
	fill()
	s.compactLevel(0) // state 1: z(1)=1 → 2 sections
	if got := len(s.levels[0].buf); got != b-2*s.geom.k {
		t.Fatalf("after second compaction kept %d, want %d", got, b-2*s.geom.k)
	}
}

func TestSpecialCompactLeavesHalf(t *testing.T) {
	s := mkSketch(t, 4, true)
	b := s.geom.b
	loadLevel0(s, ramp(0, b-1)...)
	if !s.specialCompactLevel(0) {
		t.Fatal("special compaction reported no-op on a full buffer")
	}
	keep := len(s.levels[0].buf)
	if keep != b/2 && keep != b/2+1 {
		t.Fatalf("special compaction kept %d, want B/2=%d (±1 parity)", keep, b/2)
	}
	if s.stats.SpecialCompactions != 1 {
		t.Fatal("special compaction not counted")
	}
}

func TestSpecialCompactNoOpWhenSmall(t *testing.T) {
	s := mkSketch(t, 4, true)
	loadLevel0(s, 1, 2, 3)
	if s.specialCompactLevel(0) {
		t.Fatal("special compaction ran on a small buffer")
	}
	if len(s.levels[0].buf) != 3 {
		t.Fatal("small buffer modified")
	}
}

func TestCompactionProtectsBottomHalf(t *testing.T) {
	// Run many compactions; the smallest B/2 items present at any moment
	// must never be promoted. Verify a weaker, checkable form: the global
	// minimum stays at level 0 forever.
	s := mkSketch(t, 8, false)
	s.Update(-1) // global minimum, first item
	for i := 0; i < 200000; i++ {
		s.Update(float64(i))
	}
	found := false
	for _, v := range s.levels[0].buf {
		if v == -1 {
			found = true
		}
	}
	if !found {
		t.Fatal("global minimum left level 0")
	}
	for h := 1; h < len(s.levels); h++ {
		for _, v := range s.levels[h].buf {
			if v == -1 {
				t.Fatalf("global minimum promoted to level %d", h)
			}
		}
	}
}

func TestCoinOffsetsBothOccur(t *testing.T) {
	// With a fair coin, both parities must occur across compactions.
	s := mkSketch(t, 4, false)
	seenEvenStart := false
	seenOddStart := false
	b := s.geom.b
	for trial := 0; trial < 64 && !(seenEvenStart && seenOddStart); trial++ {
		s2 := mkSketch(t, 4, false)
		s2.rnd.Seed(uint64(trial))
		loadLevel0(s2, ramp(0, b)...)
		s2.compactLevel(0)
		if len(s2.levels) > 1 && len(s2.levels[1].buf) > 0 {
			first := s2.levels[1].buf[0]
			if first == float64(b-s2.geom.k) {
				seenEvenStart = true
			} else if first == float64(b-s2.geom.k+1) {
				seenOddStart = true
			}
		}
	}
	_ = s
	if !seenEvenStart || !seenOddStart {
		t.Fatalf("coin parity not exercised: even=%v odd=%v", seenEvenStart, seenOddStart)
	}
}

func TestNaiveScheduleCompactsHalf(t *testing.T) {
	s, err := New(fless, Config{Mode: ModeFixedK, K: 4, Schedule: schedule.Naive, DetCoin: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := s.geom.b
	loadLevel0(s, ramp(0, b)...)
	s.compactLevel(0)
	if got := len(s.levels[0].buf); got != b/2 {
		t.Fatalf("naive schedule kept %d, want B/2=%d", got, b/2)
	}
}

func TestGrowthRecomputesGeometry(t *testing.T) {
	s, err := New(fless, Config{Eps: 0.1, Delta: 0.1, N0: 1 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b0 := s.geom.b
	bound0 := s.bound
	for i := 0; i < 2000; i++ {
		s.Update(float64(i))
	}
	if s.bound <= bound0 {
		t.Fatal("bound did not grow")
	}
	if s.geom.b <= b0 {
		t.Fatalf("buffer capacity did not grow across bound squaring: %d → %d", b0, s.geom.b)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeCreatesLevels(t *testing.T) {
	s := mkSketch(t, 4, false)
	n := s.geom.b * 8
	for i := 0; i < n; i++ {
		s.Update(float64(i))
	}
	if s.NumLevels() < 3 {
		t.Fatalf("cascade did not build levels: %d", s.NumLevels())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
