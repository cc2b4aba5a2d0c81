package core

import (
	"math"
	"testing"

	"req/internal/rng"
)

// Differential suite for read-through quantile reads: after level-0 appends
// alone, Quantile/QuantilesInto answer from the stale spare view plus the
// sorted append tail instead of repairing the view. Every such answer must
// equal, bit for bit, what an immediate SortedView() repair of the same
// state returns — including which of several items equal under less (±0,
// duplicates) is reported.

// repairedTwin deep-copies s together with its cached view and view
// bookkeeping, then calls SortedView on the copy: the result is the view s
// itself would get from SortedView() now, while s stays unrepaired.
func repairedTwin[T any](s *Sketch[T]) *View[T] {
	c := s.Clone()
	if sp := s.spare; sp != nil {
		cp := *sp
		cp.items = append([]T(nil), sp.items...)
		cp.cum = append([]uint64(nil), sp.cum...)
		cp.idx = eytIndex[T]{}
		c.spare = &cp
		if s.view != nil {
			c.view = c.spare
		}
	}
	c.viewDirty, c.viewStructural, c.viewL0Len = s.viewDirty, s.viewStructural, s.viewL0Len
	return c.SortedView()
}

// readThroughPhis mixes the extremes, near-extreme ranks, repeats and an
// unsorted order.
var readThroughPhis = []float64{0.5, 0, 1e-9, 0.01, 0.25, 0.9, 0.99, 0.999, 1, 0.5, 0.1}

// readThroughCase drives one sketch through bursts of appends, reading after
// each: answers are compared with the repaired twin, and reads that took
// the read-through path are counted.
type readThroughCase[T any] struct {
	s      *Sketch[T]
	draw   func() T
	bits   func(T) uint64
	probes []T
	dst    []T
	taken  int
}

func (c *readThroughCase[T]) check(t *testing.T, label string) {
	t.Helper()
	s := c.s
	through := s.readThrough(len(readThroughPhis))
	v := repairedTwin(s)
	want, err := v.QuantilesInto(nil, readThroughPhis)
	if err != nil {
		t.Fatalf("%s: repaired twin: %v", label, err)
	}
	c.dst, err = s.QuantilesInto(c.dst, readThroughPhis)
	if err != nil {
		t.Fatalf("%s: QuantilesInto: %v", label, err)
	}
	for i, phi := range readThroughPhis {
		if c.bits(c.dst[i]) != c.bits(want[i]) {
			t.Fatalf("%s: QuantilesInto φ=%v = %v (bits %x), repair gives %v (bits %x)",
				label, phi, c.dst[i], c.bits(c.dst[i]), want[i], c.bits(want[i]))
		}
		got, err := s.Quantile(phi)
		if err != nil || c.bits(got) != c.bits(want[i]) {
			t.Fatalf("%s: Quantile(%v) = %v/%v, repair gives %v", label, phi, got, err, want[i])
		}
	}
	if !through {
		return
	}
	c.taken++
	if s.Frozen() {
		t.Fatalf("%s: a read-through read froze the sketch", label)
	}
	// A following Rank searches the levels; it must agree with the view.
	for _, y := range c.probes {
		if got, want := s.Rank(y), v.Rank(y); got != want {
			t.Fatalf("%s: Rank(%v) after read-through = %d, repaired view %d", label, y, got, want)
		}
	}
}

// run feeds warm items, builds the view once, then walks the burst
// schedule, reading after each burst (twice after every third, so tails
// accumulate across several reads and repeated reads see the same tail).
func (c *readThroughCase[T]) run(t *testing.T, warm int, bursts []int) {
	t.Helper()
	for i := 0; i < warm; i++ {
		c.s.Update(c.draw())
	}
	c.s.SortedView()
	for i := range c.probes {
		c.probes[i] = c.draw()
	}
	compactions := c.s.Stats().Compactions
	for bi, b := range bursts {
		for i := 0; i < b; i++ {
			c.s.Update(c.draw())
		}
		c.check(t, "burst")
		if bi%3 == 0 {
			c.check(t, "repeat")
		}
		if err := c.s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if c.s.Stats().Compactions == compactions {
		t.Fatal("the bursts crossed no compaction")
	}
}

// readThroughBursts crosses compaction boundaries (a burst that compacts
// forces a rebuild; read-through resumes after it) and, from a small warm
// count, stream-length growths.
func readThroughBursts() []int {
	var bs []int
	for i := 0; i < 120; i++ {
		bs = append(bs, []int{1, 1, 2, 3, 7, 16, 64, 5, 200, 1, 33}[i%11])
	}
	return bs
}

func f64Bits(x float64) uint64 { return math.Float64bits(x) }
func u64Bits(x uint64) uint64  { return x }

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
						s, err := New(ord.less, Config{Eps: 0.05, Delta: 0.05, Seed: 41, HRA: hra})
						if err != nil {
							t.Fatal(err)
						}
						c := &readThroughCase[float64]{s: s, draw: st.draw(rng.New(42)), bits: f64Bits,
							probes: make([]float64, 32)}
						growths := s.Stats().Growths
						c.run(t, warm, readThroughBursts())
						if c.taken == 0 {
							t.Fatal("no read took the read-through path")
						}
						if warm < 100 && s.Stats().Growths == growths {
							t.Fatal("the growth arm crossed no stream-length growth")
						}
					})
				}
			}
		}
	}
}

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
				s, err := New(ord.less, Config{Eps: 0.05, Delta: 0.05, Seed: 43, HRA: hra})
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
				c := &readThroughCase[uint64]{s: s, draw: draw, bits: u64Bits, probes: make([]uint64, 32)}
				c.run(t, 20000, readThroughBursts())
				if c.taken == 0 {
					t.Fatal("no read took the read-through path")
				}
			})
		}
	}
}

// A tail too long to sort cheaply against a small view must repair, as
// today: no read may cost more than the repair it would skip.
func TestReadThroughFallsBackToRepair(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.01, Delta: 0.01, Seed: 45})
	for i := 0; i < 50; i++ {
		s.Update(float64(i))
	}
	s.SortedView()
	for i := 0; i < 400; i++ {
		s.Update(float64(i) + 0.5)
	}
	if s.viewStructural || len(s.levels) != 1 {
		t.Fatal("the tail compacted; the case needs a repairable state")
	}
	if s.readThrough(1) {
		t.Fatal("400-item tail against a 50-entry view took the read-through path")
	}
	want := repairedTwin(s)
	got, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := want.Quantile(0.5); got != w {
		t.Fatalf("Quantile(0.5) = %v, repair gives %v", got, w)
	}
	if !s.Frozen() {
		t.Fatal("a repairing read left the sketch unfrozen")
	}
}
