package core

import (
	"math"
	"sort"
	"testing"

	"req/internal/rng"
)

// unionView is the reference for a Union: the sorted view over the added
// sketches' coresets, every level-h item at weight 2^h, with the exact
// extremes — what a union read must answer exactly like.
func unionView[T any](t *testing.T, less func(a, b T) bool, sks []*Sketch[T]) *View[T] {
	t.Helper()
	type entry struct {
		x T
		w uint64
	}
	var all []entry
	var n uint64
	var mn, mx T
	has := false
	for _, s := range sks {
		for h := range s.levels {
			for _, x := range s.levels[h].buf {
				all = append(all, entry{x, uint64(1) << uint(h)})
			}
		}
		n += s.n
		if s.hasMinMax {
			if !has || less(s.min, mn) {
				mn = s.min
			}
			if !has || less(mx, s.max) {
				mx = s.max
			}
			has = true
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return less(all[i].x, all[j].x) })
	items := make([]T, len(all))
	weights := make([]uint64, len(all))
	for i, e := range all {
		items[i], weights[i] = e.x, e.w
	}
	ci, cc := coresetParts(items, weights)
	v, err := FrozenFromCoreset(TableFor(less), n, mn, mx, has, ci, cc)
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

// unionPhis: a sorted run, an unsorted one with repeats, the extremes.
var unionPhis = [][]float64{
	{0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999},
	{0.99, 0.5, 0.5, 0, 1, 0.25, 1e-9, 0.75},
}

// TestUnionMatchesCoresetView checks Union reads bit for bit against the
// sorted view of the same coresets, over sketches of very different sizes
// (so of different heights and level weights), in both accuracy modes, on
// the vec and the generic kernel tables.
func TestUnionMatchesCoresetView(t *testing.T) {
	sizes := []int{0, 1, 37, 900, 5000, 60000}
	for _, hra := range []bool{false, true} {
		for _, kernel := range []bool{true, false} {
			less := LessF64
			if !kernel {
				less = func(a, b float64) bool { return a < b }
			}
			r := rng.New(41)
			var sks []*Sketch[float64]
			for i, n := range sizes {
				s, err := New(less, Config{K: 8, HRA: hra, Seed: uint64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				// Each sketch gets its own range, so the runs overlap only
				// in part — the drifting shape of a time window.
				for j := 0; j < n; j++ {
					s.Update(float64(i)*300 + r.Float64()*1000)
				}
				sks = append(sks, s)
			}
			want := unionView(t, less, sks)
			var u Union[float64]
			for _, s := range sks {
				u.Add(s)
			}
			for _, phis := range unionPhis {
				got, err := u.QuantilesInto(nil, phis)
				if err != nil {
					t.Fatal(err)
				}
				exp, _ := want.QuantilesInto(nil, phis)
				for i := range phis {
					if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
						t.Fatalf("hra=%v kernel=%v: φ=%v answers %v, view %v", hra, kernel, phis[i], got[i], exp[i])
					}
					if q, _ := u.Quantile(phis[i]); math.Float64bits(q) != math.Float64bits(exp[i]) {
						t.Fatalf("hra=%v kernel=%v: Quantile(%v) = %v, view %v", hra, kernel, phis[i], q, exp[i])
					}
				}
			}
			u.Reset()
			if _, err := u.Quantile(0.5); err != ErrEmpty {
				t.Fatalf("reset union: %v, want ErrEmpty", err)
			}
		}
	}
}

// TestUnionSettleKeepsSketchAnswers: Add settles a level-0 tail in place.
// The multiset is unchanged, so the sketch's own live reads and a view it
// rebuilds afterwards must answer exactly as an untouched copy does.
func TestUnionSettleKeepsSketchAnswers(t *testing.T) {
	s, err := New(LessF64, Config{K: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	for i := 0; i < 3000; i++ {
		s.Update(r.Float64())
	}
	_ = s.SortedView()
	for i := 0; i < 40; i++ {
		s.Update(r.Float64())
	}
	twin := rebuiltView(s)
	var u Union[float64]
	u.Add(s)
	if c := &s.levels[0]; c.sorted != len(c.buf) {
		t.Fatalf("level 0 left unsettled: %d of %d sorted", c.sorted, len(c.buf))
	}
	for _, phis := range unionPhis {
		live, err := s.QuantilesInto(nil, phis)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := twin.QuantilesInto(nil, phis)
		got, _ := s.SortedView().QuantilesInto(nil, phis)
		for i := range phis {
			if math.Float64bits(live[i]) != math.Float64bits(want[i]) ||
				math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("φ=%v after union settle: live %v, rebuilt %v, untouched twin %v",
					phis[i], live[i], got[i], want[i])
			}
		}
		s.Update(r.Float64()) // stale again for the next set's live read
		twin = rebuiltView(s)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsUnionRead pins a warm union read — Reset, Add and a sorted φ
// set — at zero allocations.
func TestAllocsUnionRead(t *testing.T) {
	var sks []*Sketch[float64]
	r := rng.New(8)
	for i := 0; i < 4; i++ {
		s, _ := New(LessF64, Config{K: 16, HRA: true, Seed: uint64(i + 1)})
		for j := 0; j < 5000; j++ {
			s.Update(r.Float64())
		}
		sks = append(sks, s)
	}
	var u Union[float64]
	phis := []float64{0.5, 0.9, 0.99}
	dst := make([]float64, len(phis))
	read := func() {
		u.Reset()
		for _, s := range sks {
			u.Add(s)
		}
		var err error
		if dst, err = u.QuantilesInto(dst, phis); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if avg := testing.AllocsPerRun(200, read); avg != 0 {
		t.Fatalf("union read allocates %v allocs/op", avg)
	}
}
