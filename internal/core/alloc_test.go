package core

import (
	"testing"

	"req/internal/rng"
)

// Allocation regression tests: the steady-state hot paths must not allocate.
// Each test warms the sketch past its growth phase (so buffers, scratch,
// view storage, and index storage have all reached their high-water marks)
// and then pins allocs/op at zero with testing.AllocsPerRun.

// warmSketch builds a sketch with n random values and a materialized,
// indexed view, cycling the view cache once so the rebuild has run into
// recycled storage.
func warmSketch(tb testing.TB, n int, seed uint64) (*Sketch[float64], []float64) {
	tb.Helper()
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(seed + 1)
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = r.Float64()
	}
	for i := 0; i < n; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
	s.Freeze()
	s.Update(vals[0])
	s.Freeze() // rebuild + re-index into recycled storage
	return s, vals
}

func TestAllocsSteadyStateUpdate(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 1)
	i := 0
	if avg := testing.AllocsPerRun(5000, func() {
		s.Update(vals[i&(1<<16-1)])
		i++
	}); avg != 0 {
		t.Fatalf("steady-state Update allocates %v allocs/op", avg)
	}
}

func TestAllocsFrozenRank(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 2)
	s.Freeze()
	i := 0
	if avg := testing.AllocsPerRun(5000, func() {
		_ = s.Rank(vals[i&1023])
		_ = s.RankExclusive(vals[i&1023])
		i++
	}); avg != 0 {
		t.Fatalf("frozen Rank allocates %v allocs/op", avg)
	}
}

func TestAllocsTailRepair(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 3)
	i := 0
	// One small write followed by a view build per run: every run rebuilds
	// the whole view (k-way merge) into the recycled storage, whether or
	// not the write landed a compaction, and must not allocate.
	if avg := testing.AllocsPerRun(2000, func() {
		s.Update(vals[i&(1<<16-1)])
		i++
		_ = s.SortedView()
	}); avg != 0 {
		t.Fatalf("write+view cycle allocates %v allocs/op", avg)
	}
}

func TestAllocsReusedStorageRebuild(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 4)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		// Force the full-rebuild path every run: a structural invalidation
		// with no actual state change keeps the retained set stable while
		// the whole k-way merge re-runs into the recycled arrays.
		s.invalidate()
		_ = s.SortedView()
		_ = vals
	}); avg != 0 {
		t.Fatalf("reused-storage full rebuild allocates %v allocs/op", avg)
	}
	_ = i
}

func TestAllocsFreezeCycle(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 5)
	i := 0
	// Write, re-freeze (view + index rebuild), query: the steady loop of a
	// monitoring scrape. Index storage must recycle too.
	if avg := testing.AllocsPerRun(500, func() {
		s.Update(vals[i&(1<<16-1)])
		i++
		s.Freeze()
		_ = s.Rank(vals[i&1023])
	}); avg != 0 {
		t.Fatalf("write+freeze+rank cycle allocates %v allocs/op", avg)
	}
}

func TestAllocsBatchQueriesSortedProbes(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 6)
	probes := append([]float64(nil), vals[:256]...)
	sortSlice(probes, fless)
	dstR := make([]uint64, 0, len(probes))
	dstN := make([]float64, 0, len(probes))
	dstC := make([]float64, 0, len(probes)+1)
	s.Freeze()
	if avg := testing.AllocsPerRun(500, func() {
		dstR = s.RankBatch(dstR, probes)
		dstN = s.NormalizedRankBatch(dstN, probes)
		var err error
		dstC, err = s.CDFInto(dstC, probes)
		if err != nil {
			panic(err)
		}
	}); avg != 0 {
		t.Fatalf("sorted-probe batch queries allocate %v allocs/op", avg)
	}
}

// The kernel-table pins: fless is the canonical LessF64, so warmSketch
// builds vec-table sketches and every pin above already proves that table.
// The pins below cover the whole-batch Eytzinger descent and the
// cursor-slice k-way merge, and the generic table, which must stay
// allocation-free for non-canonical orders.

func TestAllocsKernelUnsortedBatchDescent(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 7)
	if _, ok := s.kern.(f64Kernels); !ok {
		t.Fatal("warmSketch is expected to build a vec-table sketch")
	}
	// Unsorted probes at ≥ interleaveMinBatch: RankBatch routes through the
	// kernel whole-batch descent writing straight into dst.
	probes := append([]float64(nil), vals[:64]...)
	probes[0], probes[63] = probes[63], probes[0] // defeat both sorted checks
	dst := make([]uint64, 0, len(probes))
	s.Freeze()
	if avg := testing.AllocsPerRun(500, func() {
		dst = s.RankBatch(dst, probes)
	}); avg != 0 {
		t.Fatalf("kernel unsorted-batch descent allocates %v allocs/op", avg)
	}
}

func TestAllocsKernelRebuildAfterWarm(t *testing.T) {
	// The kernel k-way merge stages cursors on s.kwayCurs; after one rebuild
	// has grown it, further full rebuilds must not allocate.
	s, vals := warmSketch(t, 1<<18, 8)
	if avg := testing.AllocsPerRun(200, func() {
		s.invalidate()
		_ = s.SortedView()
		_ = vals
	}); avg != 0 {
		t.Fatalf("kernel full rebuild allocates %v allocs/op", avg)
	}
}

func TestAllocsClosureFallbackSteadyState(t *testing.T) {
	// A non-canonical order's generic table must stay allocation-free:
	// the steady-state contract does not depend on which table a sketch
	// gets.
	s, err := New(func(a, b float64) bool { return a < b }, Config{Eps: 0.01, Delta: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.kern.(orderKernels[float64]); !ok {
		t.Fatal("non-canonical less did not get the generic table")
	}
	r := rng.New(10)
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = r.Float64()
	}
	for i := 0; i < 1<<18; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
	s.Freeze()
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		s.Update(vals[i&(1<<16-1)])
		i++
		s.Freeze()
		_ = s.Rank(vals[i&1023])
	}); avg != 0 {
		t.Fatalf("closure-fallback write+freeze+rank cycle allocates %v allocs/op", avg)
	}
}

func TestAllocsKernelUpdateBatch(t *testing.T) {
	s, vals := warmSketch(t, 1<<18, 11)
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		s.UpdateBatch(vals[i&(1<<14-1) : (i&(1<<14-1))+128])
		i += 128
	}); avg != 0 {
		t.Fatalf("kernel UpdateBatch allocates %v allocs/op", avg)
	}
}

// TestAllocsReadThroughCycle pins a polling reader's cycle — 64 Updates,
// then QuantilesInto — for kernel and closure orders. Every read selects
// over the settled levels through the sketch's own union scratch and
// builds no view; the settle sorts the tail in place and the union's runs
// are grow-only, so the cycle must not allocate.
func TestAllocsReadThroughCycle(t *testing.T) {
	for _, ord := range []struct {
		name string
		less func(a, b float64) bool
	}{{"kernel", LessF64}, {"closure", nonCanonLessF64}} {
		t.Run(ord.name, func(t *testing.T) {
			s, err := New(ord.less, Config{Seed: 12, HRA: true})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(13)
			vals := make([]float64, 1<<16)
			for i := range vals {
				vals[i] = r.Float64()
			}
			for i := 0; i < 1<<18; i++ {
				s.Update(vals[i&(1<<16-1)])
			}
			phis := []float64{0.5, 0.9, 0.99}
			var dst []float64
			i := 0
			cycle := func() {
				for j := 0; j < 64; j++ {
					s.Update(vals[i&(1<<16-1)])
					i++
				}
				if dst, err = s.QuantilesInto(dst, phis); err != nil {
					panic(err)
				}
			}
			// Warm until the scratch buffers have reached their high-water
			// marks.
			for w := 0; w < 1000; w++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
				t.Fatalf("64-update + QuantilesInto cycle allocates %v allocs/op", avg)
			}
			if s.Frozen() || s.spare != nil {
				t.Fatal("live reads built a view")
			}
		})
	}
}
