package core

import (
	"math"
	"testing"

	"req/internal/rng"
)

// Differential suite for live quantile reads: while the view is stale,
// Quantile/QuantilesInto select over the settled levels through the
// sketch's union scratch and build no view. Every answer must equal, under
// the order, what a view rebuilt from the same state returns: for floats
// that is ==, so +0 and −0 answer alike, but any other item fails.

// rebuiltView returns the view a rebuild of s's current state produces,
// built on a copy so that s itself keeps no current view.
func rebuiltView[T any](s *Sketch[T]) *View[T] { return s.Clone().sortedView() }

// liveReadPhis: an unsorted set with the extremes, near-extreme ranks and
// repeats, and an ascending dashboard set.
var liveReadPhis = [][]float64{
	{0.5, 0, 1e-9, 0.01, 0.25, 0.9, 0.99, 0.999, 1, 0.5, 0.1},
	{0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.5, 0.9, 0.99, 0.999, 1},
}

// liveReadBursts are the append counts between reads: single items, a
// partial tail, a chunk and a burst that compacts.
var liveReadBursts = []int{1, 7, 64, 300}

// liveReadCase drives one sketch through bursts of writes, reading after
// each and comparing every answer with a rebuilt view of the same state.
type liveReadCase[T any] struct {
	s      *Sketch[T]
	draw   func() T
	probes []T
	dst    []T
	// other is the Merge partner, refilled before every merge.
	other *Sketch[T]
}

// same reports whether a and b are equal under the sketch's order.
func (c *liveReadCase[T]) same(a, b T) bool {
	return !c.s.kern.less(a, b) && !c.s.kern.less(b, a)
}

func (c *liveReadCase[T]) check(t *testing.T, round int) {
	t.Helper()
	s := c.s
	v := rebuiltView(s)
	for _, phis := range liveReadPhis {
		want, err := v.QuantilesInto(nil, phis)
		if err != nil {
			t.Fatalf("round %d: rebuilt view: %v", round, err)
		}
		if c.dst, err = s.QuantilesInto(c.dst, phis); err != nil {
			t.Fatalf("round %d: QuantilesInto: %v", round, err)
		}
		for i, phi := range phis {
			if !c.same(c.dst[i], want[i]) {
				t.Fatalf("round %d: QuantilesInto φ=%v = %v, rebuilt view %v", round, phi, c.dst[i], want[i])
			}
			got, err := s.Quantile(phi)
			if err != nil || !c.same(got, want[i]) {
				t.Fatalf("round %d: Quantile(%v) = %v/%v, rebuilt view %v", round, phi, got, err, want[i])
			}
		}
	}
	if s.work.view.Count() == s.Count() {
		t.Fatalf("round %d: a live read built a view", round)
	}
	// A following Rank searches the settled levels; it must agree too.
	for _, y := range c.probes {
		if got, want := s.Rank(y), v.Rank(y); got != want {
			t.Fatalf("round %d: Rank(%v) after a live read = %d, rebuilt view %d", round, y, got, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
}

// run feeds warm items and freezes once, so a stale spare view exists,
// then walks 120 rounds of liveReadBursts, reading after each (twice after
// every third, so a read also follows a read). Every tenth round adds a
// weighted update into the upper levels, every fifteenth merges in a
// second sketch.
func (c *liveReadCase[T]) run(t *testing.T, warm int) {
	t.Helper()
	for i := 0; i < warm; i++ {
		c.s.Update(c.draw())
	}
	c.s.sortedView()
	for i := range c.probes {
		c.probes[i] = c.draw()
	}
	compactions := c.s.Stats().Compactions
	r := rng.New(uint64(warm) + 7)
	for round := 0; round < 120; round++ {
		for i := 0; i < liveReadBursts[round%len(liveReadBursts)]; i++ {
			c.s.Update(c.draw())
		}
		switch {
		case round%10 == 9:
			if err := c.s.UpdateWeighted(c.draw(), 2+r.Uint64n(1000)); err != nil {
				t.Fatal(err)
			}
		case round%15 == 14:
			c.other.Reset()
			for i := 0; i < 500; i++ {
				c.other.Update(c.draw())
			}
			if err := c.s.Merge(c.other); err != nil {
				t.Fatal(err)
			}
		}
		c.check(t, round)
		if round%3 == 0 {
			c.check(t, round)
		}
	}
	if c.s.Stats().Compactions == compactions {
		t.Fatal("the bursts crossed no compaction")
	}
}

// signedZeroHeavy draws mostly ±0 with a few small integers and signed
// extremes, so almost every comparison the selection makes is a tie.
func signedZeroHeavy(r *rng.Source) func() float64 {
	negZero := math.Copysign(0, -1)
	return func() float64 {
		switch r.Intn(8) {
		case 0, 1, 2:
			return 0
		case 3, 4, 5:
			return negZero
		case 6:
			return float64(r.Intn(5) - 2)
		}
		return []float64{math.Inf(1), math.Inf(-1), -math.SmallestNonzeroFloat64}[r.Intn(3)]
	}
}

// duplicateHeavy draws rounded normals: a few dozen distinct values.
func duplicateHeavy(r *rng.Source) func() float64 {
	return func() float64 { return math.Round(r.NormFloat64() * 4) }
}

// TestReadThroughMatchesRepairF64 reads through the live levels after
// every burst and matches each answer against the view a rebuild would
// produce, for the vec and the generic kernel tables, ±0- and
// duplicate-heavy streams, both accuracy modes, and — from a three-item
// warm start — across stream-length growths.
func TestReadThroughMatchesRepairF64(t *testing.T) {
	orders := []struct {
		name string
		less func(a, b float64) bool
	}{{"kernel", LessF64}, {"closure", nonCanonLessF64}}
	streams := []struct {
		name string
		draw func(r *rng.Source) func() float64
	}{{"signed-zero", signedZeroHeavy}, {"duplicates", duplicateHeavy}}
	for _, ord := range orders {
		for _, st := range streams {
			for _, hra := range []bool{false, true} {
				for _, warm := range []int{3, 20000} {
					name := ord.name + "/" + st.name + "/lra"
					if hra {
						name = ord.name + "/" + st.name + "/hra"
					}
					if warm < 100 {
						name += "/growth"
					}
					t.Run(name, func(t *testing.T) {
						cfg := Config{Eps: 0.05, Delta: 0.05, Seed: 41, HRA: hra}
						s, err := New(ord.less, cfg)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Seed = 42
						other, err := New(ord.less, cfg)
						if err != nil {
							t.Fatal(err)
						}
						c := &liveReadCase[float64]{s: s, draw: st.draw(rng.New(42)), other: other,
							probes: make([]float64, 32)}
						growths := s.Stats().Growths
						c.run(t, warm)
						if warm < 100 && s.Stats().Growths == growths {
							t.Fatal("the growth arm crossed no stream-length growth")
						}
					})
				}
			}
		}
	}
}

// TestReadThroughMatchesRepairU64 is the uint64 arm of the live-read
// differential suite, on a stream half of whose items are duplicates.
func TestReadThroughMatchesRepairU64(t *testing.T) {
	orders := []struct {
		name string
		less func(a, b uint64) bool
	}{{"kernel", LessU64}, {"closure", nonCanonLessU64}}
	for _, ord := range orders {
		for _, hra := range []bool{false, true} {
			name := ord.name + "/lra"
			if hra {
				name = ord.name + "/hra"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Eps: 0.05, Delta: 0.05, Seed: 43, HRA: hra}
				s, err := New(ord.less, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Seed = 44
				other, err := New(ord.less, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(44)
				draw := func() uint64 {
					if r.Intn(2) == 0 {
						return r.Uint64n(16) // heavy duplicates
					}
					return r.Uint64()
				}
				c := &liveReadCase[uint64]{s: s, draw: draw, other: other, probes: make([]uint64, 32)}
				c.run(t, 20000)
			})
		}
	}
}

// TestLiveReadUnionScratch: the read scratch belongs to the sketch's Work
// and holds no alias of its levels once a read returns. A clone gets no
// Work, a CopyFrom target keeps its own, and a Reset sketch keeps it empty.
func TestLiveReadUnionScratch(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 45})
	r := rng.New(46)
	for i := 0; i < 5000; i++ {
		s.Update(r.Float64())
	}
	if _, err := s.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	w := s.work
	if w == nil || w.union.s != nil || len(w.union.runs) != 0 {
		t.Fatal("a live Quantile left the union scratch missing or aliasing the levels")
	}
	s.Update(0.5)
	if _, err := s.QuantilesInto(nil, []float64{0.5, 0.9}); err != nil {
		t.Fatal(err)
	}
	if s.work != w || w.union.s != nil || len(w.union.runs) != 0 {
		t.Fatal("a live QuantilesInto left the union scratch aliasing the levels")
	}
	if c := s.Clone(); c.work != nil {
		t.Fatal("Clone shares the union scratch")
	}
	dst := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 47})
	dst.Update(1)
	if _, err := dst.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	own := dst.work
	dst.CopyFrom(s)
	if dst.work != own {
		t.Fatal("CopyFrom took over the source's union scratch")
	}
	s.Reset()
	if s.work != w || len(w.union.runs) != 0 {
		t.Fatal("Reset left the union scratch aliasing the old levels")
	}
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("empty sketch live read: %v, want ErrEmpty", err)
	}
	if w.union.s != nil || len(w.union.runs) != 0 {
		t.Fatal("an empty read left the union scratch aliasing the levels")
	}
}
