package core

import (
	"sync"
	"testing"
	"unsafe"
)

// buildFrozenSource returns a sketch that has seen enough of a stream to
// have multiple levels, plus the probe grid the tests compare on.
func buildFrozenSource(t *testing.T, n int) (*Sketch[float64], []float64) {
	t.Helper()
	s, err := New(fless, Config{Eps: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Update(float64((i * 7919) % n))
	}
	probes := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		probes = append(probes, float64(i*n)/64)
	}
	return s, probes
}

// TestFreezeOwnedMatchesLive pins the core contract: an owned frozen View
// answers every query bit-identically to the live sketch at capture time,
// and keeps those answers after the sketch mutates.
func TestFreezeOwnedMatchesLive(t *testing.T) {
	s, probes := buildFrozenSource(t, 50000)
	f := s.FreezeOwned()

	type answers struct {
		ranks  []uint64
		excl   []uint64
		quants []float64
		cdf    []float64
	}
	capture := func(rank func(float64) uint64, rankEx func(float64) uint64,
		quant func(float64) (float64, error), cdf func([]float64) ([]float64, error)) answers {
		var a answers
		for _, p := range probes {
			a.ranks = append(a.ranks, rank(p))
			a.excl = append(a.excl, rankEx(p))
		}
		for _, phi := range []float64{0, 0.1, 0.5, 0.99, 1} {
			q, err := quant(phi)
			if err != nil {
				t.Fatal(err)
			}
			a.quants = append(a.quants, q)
		}
		c, err := cdf(probes)
		if err != nil {
			t.Fatal(err)
		}
		a.cdf = c
		return a
	}
	live := capture(s.Rank, s.RankExclusive, s.Quantile, s.CDF)
	froz := capture(f.Rank, f.RankExclusive, f.Quantile, func(sp []float64) ([]float64, error) { return f.CDFInto(nil, sp) })

	for i := range live.ranks {
		if live.ranks[i] != froz.ranks[i] || live.excl[i] != froz.excl[i] {
			t.Fatalf("rank mismatch at probe %d: live %d/%d frozen %d/%d",
				i, live.ranks[i], live.excl[i], froz.ranks[i], froz.excl[i])
		}
	}
	for i := range live.quants {
		if live.quants[i] != froz.quants[i] {
			t.Fatalf("quantile mismatch: live %v frozen %v", live.quants[i], froz.quants[i])
		}
	}
	for i := range live.cdf {
		if live.cdf[i] != froz.cdf[i] {
			t.Fatalf("cdf mismatch at %d: live %v frozen %v", i, live.cdf[i], froz.cdf[i])
		}
	}

	// Mutate the source heavily (growth + compactions); the frozen answers
	// must not move.
	n0, retained0 := f.Count(), f.Size()
	for i := 0; i < 200000; i++ {
		s.Update(float64(i))
	}
	s.Reset()
	for i := 0; i < 1000; i++ {
		s.Update(-float64(i))
	}
	if f.Count() != n0 || f.Size() != retained0 {
		t.Fatalf("frozen state moved: n %d->%d retained %d->%d", n0, f.Count(), retained0, f.Size())
	}
	again := capture(f.Rank, f.RankExclusive, f.Quantile, func(sp []float64) ([]float64, error) { return f.CDFInto(nil, sp) })
	for i := range live.ranks {
		if live.ranks[i] != again.ranks[i] {
			t.Fatalf("frozen rank drifted after source mutation at probe %d", i)
		}
	}
}

// TestFrozenConcurrentReads hammers one owned View from many goroutines while
// the source sketch keeps writing — the -race proof of the ownership claim.
func TestFrozenConcurrentReads(t *testing.T) {
	s, probes := buildFrozenSource(t, 20000)
	f := s.FreezeOwned()
	want := f.Rank(probes[32])
	var wg sync.WaitGroup
	wg.Add(9)
	go func() {
		defer wg.Done()
		for i := 0; i < 50000; i++ {
			s.Update(float64(i))
		}
	}()
	for g := 0; g < 8; g++ {
		go func() {
			defer wg.Done()
			dst := make([]uint64, 0, len(probes))
			qdst := make([]float64, 0, 8)
			for i := 0; i < 2000; i++ {
				if f.Rank(probes[32]) != want {
					panic("frozen answer changed")
				}
				dst = f.RankBatch(dst, probes)
				var err error
				qdst, err = f.QuantilesInto(qdst, []float64{0.1, 0.5, 0.9})
				if err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrozenEmpty checks the degenerate surface.
func TestFrozenEmpty(t *testing.T) {
	s, err := New(fless, Config{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	f := s.FreezeOwned()
	if !f.Empty() || f.Count() != 0 || f.Size() != 0 {
		t.Fatal("empty frozen misreports")
	}
	if _, ok := f.Min(); ok {
		t.Fatal("empty frozen has min")
	}
	if f.Rank(3) != 0 || f.NormalizedRank(3) != 0 {
		t.Fatal("empty frozen rank != 0")
	}
	if _, err := f.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("empty frozen quantile err = %v", err)
	}
}

// TestFrozenFromCoresetRoundTrip re-creates a View from its own exported
// coreset and checks identical answers; then exercises the validator's
// rejection paths.
func TestFrozenFromCoresetRoundTrip(t *testing.T) {
	s, probes := buildFrozenSource(t, 30000)
	f := s.FreezeOwned()
	items := append([]float64(nil), f.Items()...)
	weights := make([]uint64, len(items))
	for i := range weights {
		weights[i] = f.Weight(i)
	}
	mn, _ := f.Min()
	mx, _ := f.Max()
	gi, gc := coresetParts(items, weights)
	g, err := FrozenFromCoreset(TableFor(fless), f.Count(), mn, mx, true, gi, gc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if f.Rank(p) != g.Rank(p) || f.RankExclusive(p) != g.RankExclusive(p) {
			t.Fatalf("round-tripped coreset disagrees at %v", p)
		}
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.999, 1} {
		a, _ := f.Quantile(phi)
		b, _ := g.Quantile(phi)
		if a != b {
			t.Fatalf("round-tripped quantile(%v): %v vs %v", phi, a, b)
		}
	}

	bad := func(name string, mutate func(items []float64, weights []uint64) (uint64, float64, float64, bool)) {
		is := append([]float64(nil), items...)
		ws := append([]uint64(nil), weights...)
		n, lo, hi, hasMM := mutate(is, ws)
		pi, pc := coresetParts(is, ws)
		if _, err := FrozenFromCoreset(TableFor(fless), n, lo, hi, hasMM, pi, pc); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	bad("weight mismatch", func(is []float64, ws []uint64) (uint64, float64, float64, bool) {
		return f.Count() + 1, mn, mx, true
	})
	bad("zero weight", func(is []float64, ws []uint64) (uint64, float64, float64, bool) {
		ws[0] = 0
		return f.Count(), mn, mx, true
	})
	bad("unsorted items", func(is []float64, ws []uint64) (uint64, float64, float64, bool) {
		is[0], is[1] = is[1]+1, is[0]
		return f.Count(), mn, mx, true
	})
	bad("item below min", func(is []float64, ws []uint64) (uint64, float64, float64, bool) {
		return f.Count(), mn + 1, mx, true
	})
	bad("missing min/max", func(is []float64, ws []uint64) (uint64, float64, float64, bool) {
		return f.Count(), mn, mx, false
	})
}

// coresetParts copies a coreset given as per-item weights into the
// cumulative layout FrozenFromCoreset takes.
func coresetParts[T any](items []T, weights []uint64) ([]T, []uint64) {
	cum := make([]uint64, len(weights))
	var run uint64
	for i, w := range weights {
		run += w
		cum[i] = run
	}
	return append([]T(nil), items...), cum
}

// TestFreezeSharedAliases pins FreezeShared's contract: same answers, no
// copy of the coreset arrays.
func TestFreezeSharedAliases(t *testing.T) {
	s, probes := buildFrozenSource(t, 20000)
	f := s.FreezeShared()
	v := s.SortedView()
	if len(f.Items()) != v.Size() {
		t.Fatal("shared frozen size mismatch")
	}
	if &f.Items()[0] != &v.Items()[0] {
		t.Fatal("FreezeShared copied the view storage")
	}
	for _, p := range probes {
		if f.Rank(p) != v.Rank(p) {
			t.Fatalf("shared frozen disagrees with view at %v", p)
		}
	}
}

// TestViewAndSketchSizes pins the two structs every registry key pays for:
// a key's sketch, and the sorted view an export leaves cached on it until
// its next write. A frozen reader's config sits beside its View (in
// req.Snapshot), not inside it, so the cached view stays this size.
func TestViewAndSketchSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(View[float64]{}); got != 88 {
		t.Errorf("View[float64] is %d bytes, want 88", got)
	}
	if got := unsafe.Sizeof(Sketch[float64]{}); got != 336 {
		t.Errorf("Sketch[float64] is %d bytes, want 336", got)
	}
}
