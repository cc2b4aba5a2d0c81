package core

// White-box tests of the contiguous level store: window layout, in-slab
// growth, shifting, scrubbing, and the single-memcpy clone/copy paths.
// End-to-end correctness of the engine is covered by the equivalence and
// property suites; these tests pin the storage discipline itself.

import (
	"reflect"
	"testing"
	"unsafe"

	"req/internal/rng"
)

// slabLayout asserts the full invariant-10 battery plus content equality
// between each level buffer and its slab window.
func slabLayout(t *testing.T, s *Sketch[float64]) {
	t.Helper()
	if err := s.checkSlabInvariants(); err != nil {
		t.Fatal(err)
	}
	for h := range s.levels {
		w := s.store.win[h]
		for i, v := range s.levels[h].buf {
			if s.store.slab[w.off+i] != v {
				t.Fatalf("level %d item %d: buf %v != slab %v", h, i, v, s.store.slab[w.off+i])
			}
		}
		// Slack must be scrubbed.
		for i := len(s.levels[h].buf); i < w.cap; i++ {
			if s.store.slab[w.off+i] != 0 {
				t.Fatalf("level %d slack slot %d holds %v, want 0", h, i, s.store.slab[w.off+i])
			}
		}
	}
}

func TestStoreLayoutAfterIngest(t *testing.T) {
	s := mkSketch(t, 8, false)
	r := rng.New(3)
	for i := 0; i < 100000; i++ {
		s.Update(r.Float64())
	}
	if len(s.levels) < 3 {
		t.Fatalf("want a multi-level sketch, got %d levels", len(s.levels))
	}
	slabLayout(t, s)
}

func TestStoreEnsureShiftsHigherLevels(t *testing.T) {
	s := mkSketch(t, 8, false)
	for i := 0; i < 50000; i++ {
		s.Update(float64(i))
	}
	before := make([][]float64, len(s.levels))
	for h := range s.levels {
		before[h] = append([]float64(nil), s.levels[h].buf...)
	}
	// Force a mid-hierarchy window growth: every level above must shift
	// right and keep its contents bit-identically.
	s.store.ensure(s.levels, 1, s.store.win[1].cap*3)
	slabLayout(t, s)
	for h := range s.levels {
		if len(before[h]) != len(s.levels[h].buf) {
			t.Fatalf("level %d length changed across ensure", h)
		}
		for i, v := range before[h] {
			if s.levels[h].buf[i] != v {
				t.Fatalf("level %d item %d changed across ensure: %v != %v", h, i, s.levels[h].buf[i], v)
			}
		}
	}
}

func TestStoreEnsureIsNoOpWhenCapacitySuffices(t *testing.T) {
	s := mkSketch(t, 8, true)
	s.Update(1)
	slabBefore := &s.store.slab[0]
	s.store.ensure(s.levels, 0, 1)
	if &s.store.slab[0] != slabBefore {
		t.Fatal("no-op ensure moved the slab")
	}
}

func TestStoreCloneSharesNothing(t *testing.T) {
	s := mkSketch(t, 8, false)
	r := rng.New(5)
	for i := 0; i < 30000; i++ {
		s.Update(r.Float64())
	}
	c := s.Clone()
	slabLayout(t, c)
	if &c.store.slab[0] == &s.store.slab[0] {
		t.Fatal("clone aliases the original slab")
	}
	// Divergent writes must not cross over.
	snap := append([]float64(nil), s.levels[0].buf...)
	for i := 0; i < 10000; i++ {
		c.Update(r.Float64())
	}
	for i, v := range snap {
		if s.levels[0].buf[i] != v {
			t.Fatalf("writing the clone changed the original at %d", i)
		}
	}
	slabLayout(t, s)
}

func TestStoreCopyFromReusesSlab(t *testing.T) {
	src := mkSketch(t, 8, false)
	r := rng.New(7)
	for i := 0; i < 60000; i++ {
		src.Update(r.Float64())
	}
	dst := &Sketch[float64]{}
	dst.CopyFrom(src)
	slabLayout(t, dst)
	slabBefore := &dst.store.slab[0]
	// Refresh from a slightly advanced source: same capacity class, so the
	// slab must be reused in place.
	for i := 0; i < 100; i++ {
		src.Update(r.Float64())
	}
	dst.CopyFrom(src)
	slabLayout(t, dst)
	if &dst.store.slab[0] != slabBefore {
		t.Fatal("steady-state CopyFrom reallocated the slab")
	}
	if got := testingAllocsCopyFrom(src, dst); got != 0 {
		t.Fatalf("steady-state CopyFrom allocates %v allocs/op", got)
	}
	// And the copy answers identically.
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		a, err1 := src.Quantile(phi)
		b, err2 := dst.Quantile(phi)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("quantile(%v): %v/%v (%v/%v)", phi, a, b, err1, err2)
		}
	}
}

func testingAllocsCopyFrom(src, dst *Sketch[float64]) float64 {
	return testing.AllocsPerRun(100, func() { dst.CopyFrom(src) })
}

func TestStoreCopyFromShrinkScrubs(t *testing.T) {
	big := mkSketch(t, 8, false)
	r := rng.New(9)
	for i := 0; i < 80000; i++ {
		big.Update(r.Float64())
	}
	small := mkSketch(t, 8, false)
	small.Update(1)
	dst := &Sketch[float64]{}
	dst.CopyFrom(big)
	dst.CopyFrom(small)
	slabLayout(t, dst)
	// The recycled backing array beyond the new logical slab must be zero:
	// pointer-bearing item types would otherwise keep the big stream alive.
	full := dst.store.slab[:cap(dst.store.slab)]
	for i := len(dst.store.slab); i < len(full); i++ {
		if full[i] != 0 {
			t.Fatalf("shrinking CopyFrom left %v at recycled slot %d", full[i], i)
		}
	}
}

func TestStoreResetScrubsSlab(t *testing.T) {
	s := mkSketch(t, 8, false)
	r := rng.New(11)
	for i := 0; i < 40000; i++ {
		s.Update(r.Float64())
	}
	s.Reset()
	slabLayout(t, s)
	if len(s.store.win) != 1 {
		t.Fatalf("reset kept %d windows", len(s.store.win))
	}
	full := s.store.slab[:cap(s.store.slab)]
	for i, v := range full {
		if v != 0 {
			t.Fatalf("reset left %v at slab slot %d", v, i)
		}
	}
	// The sketch must remain fully usable with the recycled slab.
	for i := 0; i < 40000; i++ {
		s.Update(r.Float64())
	}
	slabLayout(t, s)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRetainedCounterAcrossOperations(t *testing.T) {
	s := mkSketch(t, 8, false)
	r := rng.New(13)
	check := func(stage string) {
		t.Helper()
		sum := 0
		for h := range s.levels {
			sum += len(s.levels[h].buf)
		}
		if s.ItemsRetained() != sum {
			t.Fatalf("%s: ItemsRetained %d != sum %d", stage, s.ItemsRetained(), sum)
		}
	}
	for i := 0; i < 25000; i++ {
		s.Update(r.Float64())
	}
	check("updates")
	if err := s.UpdateWeighted(0.5, 12345); err != nil {
		t.Fatal(err)
	}
	check("weighted")
	o := mkSketch(t, 8, false)
	for i := 0; i < 9000; i++ {
		o.Update(r.Float64())
	}
	if err := s.Merge(o); err != nil {
		t.Fatal(err)
	}
	check("merge")
	snap := s.Snapshot()
	re, err := FromSnapshot(fless, snap)
	if err != nil {
		t.Fatal(err)
	}
	if re.ItemsRetained() != s.ItemsRetained() {
		t.Fatalf("restore retained %d != %d", re.ItemsRetained(), s.ItemsRetained())
	}
	s.Reset()
	check("reset")
	if s.ItemsRetained() != 0 {
		t.Fatalf("reset retained %d", s.ItemsRetained())
	}
}

func TestSnapshotLevelsShareOneSlab(t *testing.T) {
	s := mkSketch(t, 8, false)
	r := rng.New(17)
	for i := 0; i < 50000; i++ {
		s.Update(r.Float64())
	}
	snap := s.Snapshot()
	total := 0
	for _, lv := range snap.Levels {
		total += len(lv.Items)
	}
	if total != s.ItemsRetained() {
		t.Fatalf("snapshot carries %d items, sketch retains %d", total, s.ItemsRetained())
	}
	// Windows must be back to back in one allocation: each level's first
	// item immediately follows the previous level's last slot.
	for h := 1; h < len(snap.Levels); h++ {
		prev, cur := snap.Levels[h-1].Items, snap.Levels[h].Items
		if len(prev) == 0 || len(cur) == 0 {
			continue
		}
		end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(len(prev))*unsafe.Sizeof(float64(0))
		if uintptr(unsafe.Pointer(unsafe.SliceData(cur))) != end {
			t.Fatalf("snapshot levels %d and %d are not contiguous", h-1, h)
		}
	}
	// And they are genuine copies: mutating the sketch must not reach them.
	probe := snap.Levels[0].Items[0]
	for i := 0; i < 10000; i++ {
		s.Update(r.Float64())
	}
	if snap.Levels[0].Items[0] != probe {
		t.Fatal("snapshot aliases live sketch storage")
	}
}

// TestStoreSmallWindowWritePaths starts every sketch from Init's
// reservation (one level header and an initialWindow-item level-0 window)
// and drives each path that writes into a window, checking every
// invariant (invariant 10, the window layout, included) and the slab's
// contents and scrubbed slack after each. A twin whose level-0 window is
// widened to B before its first write, the reservation Init used to make,
// gets the same calls and must end in the same state: a window's size
// never changes what the sketch holds.
func TestStoreSmallWindowWritePaths(t *testing.T) {
	cfg := Config{Mode: ModeFixedK, K: 16, HRA: true, Seed: 1}
	fresh := func(t *testing.T) *Sketch[float64] {
		t.Helper()
		s, err := New(fless, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.store.win) != 1 || s.store.win[0].cap != initialWindow || cap(s.levels) != 1 {
			t.Fatalf("Init reserved %d windows, a %d-item level-0 window and %d level headers",
				len(s.store.win), s.store.win[0].cap, cap(s.levels))
		}
		return s
	}
	r := rng.New(21)
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = r.Float64()
	}
	// oneLevel fits level 0 (B = 128), so merging it into a fresh sketch
	// widens the target's small window; tall has several levels.
	oneLevel, tall := fresh(t), fresh(t)
	oneLevel.UpdateBatch(vals[:100])
	tall.UpdateBatch(vals[100:])
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Sketch[float64])
	}{
		{"Update", func(_ *testing.T, s *Sketch[float64]) {
			for _, v := range vals {
				s.Update(v)
			}
		}},
		{"UpdateBatch", func(_ *testing.T, s *Sketch[float64]) {
			// 5 items fit the window, the next 15 cross its edge, the
			// rest cross B and compact.
			s.UpdateBatch(vals[:5])
			s.UpdateBatch(vals[5:20])
			s.UpdateBatch(vals[20:])
		}},
		{"IngestRun", func(_ *testing.T, s *Sketch[float64]) {
			s.IngestRun(vals[:1])
			for i := 1; i < len(vals); i += 7 {
				s.IngestRun(vals[i:min(i+7, len(vals))])
			}
		}},
		{"UpdateWeighted", func(t *testing.T, s *Sketch[float64]) {
			for i, v := range vals[:300] {
				if err := s.UpdateWeighted(v, uint64(i%37+1)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Merge into empty", func(t *testing.T, s *Sketch[float64]) {
			if err := s.Merge(tall); err != nil {
				t.Fatal(err)
			}
		}},
		{"Merge into fresh", func(t *testing.T, s *Sketch[float64]) {
			s.UpdateBatch(vals[:3])
			for _, src := range []*Sketch[float64]{oneLevel, tall} {
				if err := s.Merge(src); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Reset and refill", func(_ *testing.T, s *Sketch[float64]) {
			s.UpdateBatch(vals)
			s.Reset()
			for _, v := range vals[:50] {
				s.Update(v)
			}
		}},
		{"CopyFrom into fresh", func(_ *testing.T, s *Sketch[float64]) {
			s.CopyFrom(tall)
			s.UpdateBatch(vals[:200])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, wide := fresh(t), fresh(t)
			wide.store.ensure(wide.levels, 0, wide.geom.b)
			for _, s := range []*Sketch[float64]{small, wide} {
				tc.run(t, s)
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				slabLayout(t, s)
			}
			if !reflect.DeepEqual(small.Snapshot(), wide.Snapshot()) {
				t.Fatal("the sketch grown from Init's small window differs from its twin reserved at B")
			}
		})
	}
}
