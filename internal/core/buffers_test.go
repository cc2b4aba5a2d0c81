package core

// White-box tests of the level buffers: each level owns its buffer, and
// cloning, copying, shrinking and resetting keep every spare slot zeroed.
// End-to-end correctness of the engine is covered by the equivalence and
// property suites; these tests pin the storage discipline itself.

import (
	"reflect"
	"testing"
	"unsafe"

	"req/internal/rng"
)

// checkBuffers asserts invariant 10 (the retained counter, and no buffer
// shared between two owners) and that every slot past a level buffer's
// length is zero, kept buffers of cut-off levels included: pointer-bearing
// item types must not linger there.
func checkBuffers(t *testing.T, s *Sketch[float64]) {
	t.Helper()
	if err := s.checkStorage(); err != nil {
		t.Fatal(err)
	}
	for h, lv := range s.levels[:cap(s.levels)] {
		if h >= len(s.levels) && (len(lv.buf) != 0 || lv.sorted != 0 || lv.state != 0) {
			t.Fatalf("kept level %d is not empty", h)
		}
		for i, v := range lv.buf[len(lv.buf):cap(lv.buf)] {
			if v != 0 {
				t.Fatalf("level %d spare slot %d holds %v, want 0", h, len(lv.buf)+i, v)
			}
		}
	}
}

// TestStoreCapacityWithinTwiceB pins what growing by append reserves: fed
// 2²⁰ items one at a time, a sketch's level buffers hold at most 2·B slots
// per level in all, checked every 1,024th update.
func TestStoreCapacityWithinTwiceB(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1},
		{HRA: true, Seed: 1},
		{Mode: ModeFixedK, K: 16, Seed: 1},
		{Mode: ModeFixedK, K: 16, HRA: true, Seed: 1},
	} {
		s, err := New(fless, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(31)
		peak := 0.0
		for i := 1; i <= 1<<20; i++ {
			s.Update(r.Float64())
			if i%1024 != 0 {
				continue
			}
			slots := 0
			for h := range s.levels {
				slots += cap(s.levels[h].buf)
			}
			per := float64(slots) / float64(s.geom.b*len(s.levels))
			if per > 2 {
				t.Fatalf("%+v after %d updates: %d slots in %d levels of B = %d (%.2f·B per level), want ≤ 2·B",
					cfg, i, slots, len(s.levels), s.geom.b, per)
			}
			peak = max(peak, per)
		}
		t.Logf("mode %d, HRA %v: peak %.2f·B slots per level", cfg.Mode, cfg.HRA, peak)
	}
}

func TestStoreCloneSharesNothing(t *testing.T) {
	s := mkSketch(t, 8, false)
	r := rng.New(5)
	for i := 0; i < 30000; i++ {
		s.Update(r.Float64())
	}
	c := s.Clone()
	checkBuffers(t, c)
	for h := range s.levels {
		if slicesShareMemory(c.levels[h].buf, s.levels[h].buf) {
			t.Fatalf("clone shares level %d's buffer with the original", h)
		}
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
	checkBuffers(t, s)
}

func TestStoreCopyFromReusesSlab(t *testing.T) {
	src := mkSketch(t, 8, false)
	r := rng.New(7)
	for i := 0; i < 60000; i++ {
		src.Update(r.Float64())
	}
	dst := &Sketch[float64]{}
	dst.CopyFrom(src)
	checkBuffers(t, dst)
	// Refresh from a slightly advanced source: the buffers grow to the
	// source's lengths once, then every refresh reuses them in place.
	for i := 0; i < 100; i++ {
		src.Update(r.Float64())
	}
	dst.CopyFrom(src)
	checkBuffers(t, dst)
	before := make([]*float64, len(dst.levels))
	for h := range dst.levels {
		before[h] = unsafe.SliceData(dst.levels[h].buf)
	}
	if got := testingAllocsCopyFrom(src, dst); got != 0 {
		t.Fatalf("steady-state CopyFrom allocates %v allocs/op", got)
	}
	for h := range dst.levels {
		if unsafe.SliceData(dst.levels[h].buf) != before[h] {
			t.Fatalf("steady-state CopyFrom reallocated level %d", h)
		}
	}
	checkBuffers(t, dst)
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
	levels := len(dst.levels)
	dst.CopyFrom(small)
	// The levels small lacks are cut off but kept, scrubbed, for reuse:
	// pointer-bearing item types would otherwise keep the big stream alive.
	if cap(dst.levels) < levels {
		t.Fatalf("shrinking CopyFrom kept %d of %d levels", cap(dst.levels), levels)
	}
	checkBuffers(t, dst)
}

func TestStoreResetScrubsSlab(t *testing.T) {
	s := mkSketch(t, 8, false)
	r := rng.New(11)
	for i := 0; i < 40000; i++ {
		s.Update(r.Float64())
	}
	levels := len(s.levels)
	s.Reset()
	if len(s.levels) != 1 || cap(s.levels) < levels {
		t.Fatalf("reset left %d levels and kept %d of %d", len(s.levels), cap(s.levels), levels)
	}
	for h, lv := range s.levels[:levels] {
		if cap(lv.buf) == 0 {
			t.Fatalf("reset dropped level %d's buffer", h)
		}
	}
	checkBuffers(t, s)
	// The sketch must remain fully usable with the kept buffers.
	for i := 0; i < 40000; i++ {
		s.Update(r.Float64())
	}
	checkBuffers(t, s)
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
// reservation (one level header and an initialWindow-item level-0 buffer)
// and drives each path that writes into a level, checking every invariant
// and the zeroed spare slots after each. A twin whose level-0 buffer is
// reserved at B before its first write gets the same calls and must end
// in the same state: a buffer's capacity never changes what the sketch
// holds.
func TestStoreSmallWindowWritePaths(t *testing.T) {
	cfg := Config{Mode: ModeFixedK, K: 16, HRA: true, Seed: 1}
	fresh := func(t *testing.T) *Sketch[float64] {
		t.Helper()
		s, err := New(fless, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.levels) != 1 || cap(s.levels[0].buf) != initialWindow || cap(s.levels) != 1 {
			t.Fatalf("Init reserved %d levels, a %d-item level-0 buffer and %d level headers",
				len(s.levels), cap(s.levels[0].buf), cap(s.levels))
		}
		return s
	}
	r := rng.New(21)
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = r.Float64()
	}
	// oneLevel fits level 0 (B = 128), so merging it into a fresh sketch
	// grows the target's small buffer; tall has several levels.
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
			// 5 items fit the buffer, the next 15 outgrow it, the rest
			// cross B and compact.
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
			wide.levels[0].buf = make([]float64, 0, wide.geom.b)
			for _, s := range []*Sketch[float64]{small, wide} {
				tc.run(t, s)
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				checkBuffers(t, s)
			}
			if !reflect.DeepEqual(small.Snapshot(), wide.Snapshot()) {
				t.Fatal("the sketch grown from Init's small buffer differs from its twin reserved at B")
			}
		})
	}
}
