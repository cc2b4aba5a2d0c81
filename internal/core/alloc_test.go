package core

import (
	"testing"

	"req/internal/rng"
)

// Allocation regression tests: the steady-state hot paths must not allocate.
// Each test warms the sketch past its growth phase (so buffers, scratch
// and view storage have all reached their high-water marks) and then pins
// allocs/op at zero with testing.AllocsPerRun.

// warmSketch builds a sketch with n random values and a materialized view,
// cycling the view cache once so the rebuild has run into recycled
// storage.
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
	s.SortedView()
	s.Update(vals[0])
	s.SortedView() // rebuild into recycled storage
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
	s.SortedView()
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
	// Write, re-freeze (view rebuild), query: the steady loop of a
	// monitoring scrape.
	if avg := testing.AllocsPerRun(500, func() {
		s.Update(vals[i&(1<<16-1)])
		i++
		s.SortedView()
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
	s.SortedView()
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
// The pins below cover unsorted probe sets and the cursor-slice k-way
// merge, and the generic table, which must stay allocation-free for
// non-canonical orders.

// TestAllocsKernelUnsortedBatchDescent pins unsorted probe and φ sets at
// zero allocations on a view built by SortedView, for the vec table and a
// closure table: an unsorted RankBatch or NormalizedRankBatch answers each
// probe with Rank, and QuantilesInto restarts its gallop wherever φ drops,
// so neither sorts a copy of its input.
func TestAllocsKernelUnsortedBatchDescent(t *testing.T) {
	for _, ord := range []struct {
		name string
		less func(a, b float64) bool
	}{{"kernel", LessF64}, {"closure", nonCanonLessF64}} {
		t.Run(ord.name, func(t *testing.T) {
			s, err := New(ord.less, Config{Eps: 0.01, Delta: 0.01, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if _, isVec := s.kern.(f64Kernels); isVec != (ord.name == "kernel") {
				t.Fatalf("%s order got the wrong kernel table", ord.name)
			}
			r := rng.New(8)
			for i := 0; i < 1<<18; i++ {
				s.Update(r.Float64())
			}
			s.SortedView()
			unsorted := func(n int) []float64 {
				ys := make([]float64, n)
				for i := range ys {
					ys[i] = r.Float64()
				}
				ys[0], ys[1], ys[2] = 0.5, 1, 0 // a rise and a fall: sorted neither way
				return ys
			}
			p16, p64 := unsorted(16), unsorted(64)
			phis := []float64{0.99, 0.5, 0.9, 0.01, 1, 0, 0.75}
			var dstR []uint64
			var dstN []float64
			var dstQ []float64
			for _, tc := range []struct {
				name string
				run  func()
			}{
				{"RankBatch/16", func() { dstR = s.RankBatch(dstR, p16) }},
				{"RankBatch/64", func() { dstR = s.RankBatch(dstR, p64) }},
				{"NormalizedRankBatch/64", func() { dstN = s.NormalizedRankBatch(dstN, p64) }},
				{"QuantilesInto/unsorted", func() {
					if dstQ, err = s.QuantilesInto(dstQ, phis); err != nil {
						panic(err)
					}
				}},
				// A single read selects over the levels; the view's own
				// unsorted sweep is what a frozen reader runs.
				{"View.QuantilesInto/unsorted", func() {
					if dstQ, err = s.SortedView().QuantilesInto(dstQ, phis); err != nil {
						panic(err)
					}
				}},
			} {
				tc.run() // grow dst
				if avg := testing.AllocsPerRun(500, tc.run); avg != 0 {
					t.Errorf("%s allocates %v allocs/op", tc.name, avg)
				}
			}
			if s.view == nil {
				t.Fatal("batch reads dropped the view")
			}
		})
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
	s.SortedView()
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		s.Update(vals[i&(1<<16-1)])
		i++
		s.SortedView()
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
			if s.view != nil || s.spare != nil {
				t.Fatal("live reads built a view")
			}
		})
	}
}
