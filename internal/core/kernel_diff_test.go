package core

import (
	"math"
	"math/rand"
	"testing"
)

// Differential suite for the kernel tables: a sketch built over the
// canonical LessF64/LessU64 (the vec table) must stay bit-identical —
// retained state and every query answer — to a sketch built over a
// non-canonical closure with the same body (the generic orderKernels
// table). The vec kernels are transcriptions, not re-implementations, so
// any divergence here is a transcription bug, including on adversarial
// inputs where several "correct" answers exist (ties, ±0) and only
// structural identity pins one down.

// nonCanonLessF64 compares identically to LessF64 but is a distinct
// function, so kernelFor gives it the generic table.
func nonCanonLessF64(a, b float64) bool { return a < b }

func nonCanonLessU64(a, b uint64) bool { return a < b }

func TestKernelForDetection(t *testing.T) {
	if _, ok := kernelFor[float64](LessF64).(f64Kernels); !ok {
		t.Fatal("canonical LessF64 did not select the float64 vec table")
	}
	if _, ok := kernelFor[uint64](LessU64).(u64Kernels); !ok {
		t.Fatal("canonical LessU64 did not select the uint64 vec table")
	}
	if _, ok := kernelFor[float64](nonCanonLessF64).(orderKernels[float64]); !ok {
		t.Fatal("non-canonical float64 less must get the generic table")
	}
	if _, ok := kernelFor[uint64](nonCanonLessU64).(orderKernels[uint64]); !ok {
		t.Fatal("non-canonical uint64 less must get the generic table")
	}
	if _, ok := kernelFor[string](func(a, b string) bool { return a < b }).(orderKernels[string]); !ok {
		t.Fatal("an element type without vec kernels must get the generic table")
	}
	// Choosing either table allocates nothing, so a closure-ordered
	// registry pays no allocation per key for its table.
	for _, less := range []func(a, b float64) bool{LessF64, nonCanonLessF64} {
		if avg := testing.AllocsPerRun(100, func() { kernSink = kernelFor(less) }); avg != 0 {
			t.Fatalf("kernelFor allocates %v allocs/op", avg)
		}
	}
}

var kernSink kernels[float64]

// diffStreamF64 draws a float64 stream with adversarial values mixed in.
// NaN is excluded: the LessF64 table drops it on every write while the
// closure order admits it, and NaN in a *sorted structure* has no defined
// behaviour to be identical to. NaN handling of the scan kernels themselves
// is covered by internal/vec's differential tests and TestKernelTableNaNRule.
func diffStreamF64(r *rand.Rand, n int) []float64 {
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, 1e300, -1e300}
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(6) {
		case 0:
			xs[i] = special[r.Intn(len(special))]
		case 1:
			xs[i] = math.Round(r.NormFloat64() * 3) // heavy ties
		default:
			xs[i] = r.NormFloat64() * 1e3
		}
	}
	return xs
}

// diffStreamU64 draws a uint64 stream around the extremes and the sign
// bit (where a signed compare would go wrong), with heavy ties.
func diffStreamU64(r *rand.Rand, n int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		switch r.Intn(5) {
		case 0:
			xs[i] = math.MaxUint64 - uint64(r.Intn(4))
		case 1:
			xs[i] = (uint64(1) << 63) + uint64(r.Intn(4)) - 2
		case 2:
			xs[i] = uint64(r.Intn(16)) // heavy ties
		default:
			xs[i] = r.Uint64()
		}
	}
	return xs
}

// diffCase pairs the canonical order of one element type with a
// non-canonical closure of the same body.
type diffCase[T any] struct {
	canon, closure func(a, b T) bool
	draw           func(r *rand.Rand, n int) []T
	// same is bit identity (it tells ±0 apart).
	same func(a, b T) bool
	// isVec reports whether a table is the element type's vec table.
	isVec func(kernels[T]) bool
}

var (
	diffF64 = diffCase[float64]{
		canon: LessF64, closure: nonCanonLessF64, draw: diffStreamF64,
		same:  func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) },
		isVec: func(k kernels[float64]) bool { _, ok := k.(f64Kernels); return ok },
	}
	diffU64 = diffCase[uint64]{
		canon: LessU64, closure: nonCanonLessU64, draw: diffStreamU64,
		same:  func(a, b uint64) bool { return a == b },
		isVec: func(k kernels[uint64]) bool { _, ok := k.(u64Kernels); return ok },
	}
)

func (c diffCase[T]) stateEqual(t *testing.T, k, g *Sketch[T]) {
	t.Helper()
	if k.n != g.n || k.bound != g.bound || k.retained != g.retained || len(k.levels) != len(g.levels) {
		t.Fatalf("shape diverged: n %d/%d bound %d/%d retained %d/%d levels %d/%d",
			k.n, g.n, k.bound, g.bound, k.retained, g.retained, len(k.levels), len(g.levels))
	}
	if !c.same(k.min, g.min) || !c.same(k.max, g.max) {
		t.Fatalf("min/max diverged: (%v, %v) vs (%v, %v)", k.min, k.max, g.min, g.max)
	}
	for h := range k.levels {
		kb, gb := k.levels[h].buf, g.levels[h].buf
		if len(kb) != len(gb) {
			t.Fatalf("level %d length diverged: %d vs %d", h, len(kb), len(gb))
		}
		for i := range kb {
			if !c.same(kb[i], gb[i]) {
				t.Fatalf("level %d item %d diverged: %v vs %v", h, i, kb[i], gb[i])
			}
		}
		if k.levels[h].sorted != g.levels[h].sorted {
			t.Fatalf("level %d sorted prefix diverged: %d vs %d", h, k.levels[h].sorted, g.levels[h].sorted)
		}
		if k.levels[h].state != g.levels[h].state {
			t.Fatalf("level %d schedule state diverged", h)
		}
	}
}

func (c diffCase[T]) queriesEqual(t *testing.T, k, g *Sketch[T], probes []T) {
	t.Helper()
	for _, y := range probes {
		if a, b := k.Rank(y), g.Rank(y); a != b {
			t.Fatalf("Rank(%v) diverged: %d vs %d", y, a, b)
		}
		if a, b := k.RankExclusive(y), g.RankExclusive(y); a != b {
			t.Fatalf("RankExclusive(%v) diverged: %d vs %d", y, a, b)
		}
	}
	kd := k.RankBatch(nil, probes)
	gd := g.RankBatch(nil, probes)
	for i := range kd {
		if kd[i] != gd[i] {
			t.Fatalf("RankBatch[%d] (probe %v) diverged: %d vs %d", i, probes[i], kd[i], gd[i])
		}
	}
	if k.Count() > 0 {
		phis := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		kq, err := k.Quantiles(phis)
		if err != nil {
			t.Fatal(err)
		}
		gq, err := g.Quantiles(phis)
		if err != nil {
			t.Fatal(err)
		}
		for i := range kq {
			if !c.same(kq[i], gq[i]) {
				t.Fatalf("Quantile(%v) diverged: %v vs %v", phis[i], kq[i], gq[i])
			}
		}
		splits := append([]T(nil), probes...)
		sortSlice(splits, c.canon)
		kc, err := k.CDF(splits)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := g.CDF(splits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range kc {
			if kc[i] != gc[i] {
				t.Fatalf("CDF[%d] diverged: %v vs %v", i, kc[i], gc[i])
			}
		}
	}
}

// run drives a vec-table sketch and a generic-table sketch through the
// same interleaving of batch and single updates, mid-stream queries (live
// reads over the levels and view rebuilds), view builds (frozen paths) and
// merges, comparing state after every step, then a snapshot round-trip
// and a frozen capture.
func (c diffCase[T]) run(t *testing.T, seed int64, n int) {
	for _, hra := range []bool{false, true} {
		name := "LRA"
		if hra {
			name = "HRA"
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cfg := Config{Eps: 0.05, Delta: 0.05, Seed: 99, HRA: hra}
			k, err := New(c.canon, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !c.isVec(k.kern) {
				t.Fatal("canonical sketch did not get the vec table")
			}
			g, err := New(c.closure, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.isVec(g.kern) {
				t.Fatal("closure sketch unexpectedly got the vec table")
			}

			stream := c.draw(r, n)
			i := 0
			step := 0
			for i < len(stream) {
				switch step % 6 {
				case 0, 1: // batch ingest
					take := min(1+r.Intn(2000), len(stream)-i)
					k.UpdateBatch(stream[i : i+take])
					g.UpdateBatch(stream[i : i+take])
					i += take
				case 2: // single updates (a level-0 tail for the next read to settle)
					take := min(1+r.Intn(50), len(stream)-i)
					for _, x := range stream[i : i+take] {
						k.Update(x)
						g.Update(x)
					}
					i += take
				case 3: // queries mid-stream (live reads and view rebuilds)
					c.queriesEqual(t, k, g, c.draw(r, 64))
				case 4: // freeze (frozen view paths)
					k.SortedView()
					g.SortedView()
					// unsorted probes: answered probe by probe
					c.queriesEqual(t, k, g, c.draw(r, 100))
				case 5: // merge a second pair in
					ocfg := cfg
					ocfg.Seed = 7
					ok1, err := New(c.canon, ocfg)
					if err != nil {
						t.Fatal(err)
					}
					og, err := New(c.closure, ocfg)
					if err != nil {
						t.Fatal(err)
					}
					side := c.draw(r, 3000)
					ok1.UpdateBatch(side)
					og.UpdateBatch(side)
					if err := k.Merge(ok1); err != nil {
						t.Fatal(err)
					}
					if err := g.Merge(og); err != nil {
						t.Fatal(err)
					}
				}
				step++
				c.stateEqual(t, k, g)
			}
			c.stateEqual(t, k, g)
			c.queriesEqual(t, k, g, c.draw(r, 256))

			// Snapshot round-trip restores the vec table and the state.
			rk, err := FromSnapshot(c.canon, k.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !c.isVec(rk.kern) {
				t.Fatal("FromSnapshot did not restore the vec table")
			}
			c.stateEqual(t, rk, g)

			// Owned frozen views answer identically too.
			fk := k.FreezeOwned()
			fg := g.FreezeOwned()
			if !c.isVec(fk.kern) {
				t.Fatal("FreezeOwned dropped the vec table")
			}
			for _, y := range c.draw(r, 128) {
				if a, b := fk.Rank(y), fg.Rank(y); a != b {
					t.Fatalf("frozen Rank(%v) diverged: %d vs %d", y, a, b)
				}
				if a, b := fk.RankExclusive(y), fg.RankExclusive(y); a != b {
					t.Fatalf("frozen RankExclusive(%v) diverged: %d vs %d", y, a, b)
				}
			}
		})
	}
}

func TestKernelDifferentialFloat64(t *testing.T) { diffF64.run(t, 42, 60000) }

func TestKernelDifferentialUint64(t *testing.T) { diffU64.run(t, 43, 40000) }

// TestKernelViewRepairEquivalence drives the few-writes-between-queries
// pattern hard on duplicate-heavy input: after every burst, the kernel
// table's live read (tail settle + union selection) must answer
// bit-identically to the closure table's, and so must the view each then
// rebuilds into recycled storage (KWayMerge against the generic heap).
func TestKernelViewRepairEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	cfg := Config{Eps: 0.1, Delta: 0.1, Seed: 3}
	k, _ := New(LessF64, cfg)
	g, _ := New(nonCanonLessF64, cfg)
	phis := []float64{0.001, 0.1, 0.5, 0.9, 0.99}
	for round := 0; round < 400; round++ {
		m := 1 + r.Intn(5)
		for j := 0; j < m; j++ {
			x := math.Round(r.NormFloat64() * 10)
			k.Update(x)
			g.Update(x)
		}
		kq, err := k.QuantilesInto(nil, phis)
		if err != nil {
			t.Fatal(err)
		}
		gq, _ := g.QuantilesInto(nil, phis)
		for i := range phis {
			if math.Float64bits(kq[i]) != math.Float64bits(gq[i]) {
				t.Fatalf("round %d: live φ=%v diverged: %v vs %v", round, phis[i], kq[i], gq[i])
			}
		}
		if round%4 != 3 {
			continue // let several live reads settle before the next rebuild
		}
		kv := k.SortedView()
		gv := g.SortedView()
		if len(kv.items) != len(gv.items) {
			t.Fatalf("round %d: view size diverged: %d vs %d", round, len(kv.items), len(gv.items))
		}
		for i := range kv.items {
			if math.Float64bits(kv.items[i]) != math.Float64bits(gv.items[i]) || kv.cum[i] != gv.cum[i] {
				t.Fatalf("round %d: view entry %d diverged: (%v, %d) vs (%v, %d)",
					round, i, kv.items[i], kv.cum[i], gv.items[i], gv.cum[i])
			}
		}
	}
}

// TestKernelTableNaNRule pins the item rule the kernel tables carry. On the
// LessF64 table UpdateBatch copies no clean slice (0 allocs) and drops every
// NaN while keeping the order of the rest, and Update and UpdateWeighted
// drop NaN too. The LessU64 table and a closure-ordered sketch admit every
// item.
func TestKernelTableNaNRule(t *testing.T) {
	cfg := Config{Eps: 0.1, Delta: 0.1, Seed: 1}
	negZero := math.Copysign(0, -1)
	clean := []float64{1, math.Inf(-1), 0, negZero, 5}
	if got := TableFor(LessF64).Admitted(clean); &got[0] != &clean[0] {
		t.Fatal("Admitted copied a clean slice")
	}
	s, err := New(LessF64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.UpdateBatch(clean)
	}); avg != 0 {
		t.Fatalf("UpdateBatch of a clean slice allocates %v allocs/op", avg)
	}

	nan := math.NaN()
	dirty := []float64{3, nan, 1, 2, nan, negZero, 5, nan}
	want := []float64{3, 1, 2, negZero, 5}
	s.Reset()
	s.UpdateBatch(dirty)
	s.Update(nan)
	if err := s.UpdateWeighted(nan, 3); err != nil {
		t.Fatal(err)
	}
	got := s.levels[0].buf
	if s.Count() != uint64(len(want)) || len(got) != len(want) {
		t.Fatalf("count %d, level 0 %v; want %v", s.Count(), got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("level 0 = %v, want %v in input order", got, want)
		}
	}
	if mn, _ := s.Min(); mn != 0 {
		t.Fatalf("min = %v", mn)
	}

	g, err := New(nonCanonLessF64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.UpdateBatch(dirty)
	g.Update(nan)
	if err := g.UpdateWeighted(nan, 3); err != nil {
		t.Fatal(err)
	}
	if g.Count() != uint64(len(dirty)+1+3) {
		t.Fatalf("closure order: count = %d, want %d (every item admitted)", g.Count(), len(dirty)+4)
	}
	u := TableFor(LessU64)
	all := []uint64{0, math.MaxUint64, 7}
	if !u.Admits(math.MaxUint64) || !u.AdmitsAll(all) || &u.Admitted(all)[0] != &all[0] {
		t.Fatal("LessU64 table dropped an item")
	}
	for _, c := range []struct {
		name string
		tab  interface{ Canonical() bool }
		want bool
	}{
		{"LessF64", TableFor(LessF64), true},
		{"LessU64", u, true},
		{"closure", TableFor(nonCanonLessF64), false},
	} {
		if c.tab.Canonical() != c.want {
			t.Errorf("%s: Canonical() = %v", c.name, !c.want)
		}
	}
}
