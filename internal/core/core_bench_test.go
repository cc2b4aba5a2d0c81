package core

import (
	"fmt"
	"math"
	"testing"

	"req/internal/rng"
)

// Micro-benchmarks of the engine's hot paths, complementing the end-to-end
// throughput benches at the repository root.

// benchOrders are the two kernel tables a float64 sketch can get: the vec
// table of the canonical LessF64, and the generic table of any other less
// (nonCanonLessF64 has the same body).
var benchOrders = []struct {
	name string
	less func(a, b float64) bool
}{{"vec", LessF64}, {"closure", nonCanonLessF64}}

func BenchmarkCoreUpdate(b *testing.B) {
	for _, ord := range benchOrders {
		b.Run(ord.name, func(b *testing.B) {
			s, err := New(ord.less, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(2)
			vals := make([]float64, 1<<16)
			for i := range vals {
				vals[i] = r.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(vals[i&(1<<16-1)])
			}
		})
	}
}

// BenchmarkCoreUpdateBatch reports per-item cost of the batch ingest path
// (compare against BenchmarkCoreUpdate).
func BenchmarkCoreUpdateBatch(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(2)
			vals := make([]float64, size)
			for i := range vals {
				vals[i] = r.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				s.UpdateBatch(vals)
			}
		})
	}
}

// BenchmarkCoreUpdateSortedStream feeds an ascending stream: the sorted-
// prefix extension keeps level 0 settle-free, the best case for the merge-
// based compactor.
func BenchmarkCoreUpdateSortedStream(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(float64(i))
	}
}

func BenchmarkCoreUpdateWeighted(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	vals := make([]float64, 1<<12)
	for i := range vals {
		vals[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.UpdateWeighted(vals[i&(1<<12-1)], 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreRankScan(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Rank(float64(i&1023) / 1024)
	}
	_ = sink
}

// BenchmarkCoreRankFrozen ranks on a sketch whose view is current. A
// single read never consults the view, so this is BenchmarkCoreRankScan's
// level search on a quiesced sketch; the view's own search serves the
// batch reads (BenchmarkCoreRankBatch) and frozen snapshots.
func BenchmarkCoreRankFrozen(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	s.SortedView()
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Rank(float64(i&1023) / 1024)
	}
	_ = sink
}

// BenchmarkCoreSortedViewBuild measures a cold view build: fresh storage,
// full k-way merge (the spare is dropped every iteration).
func BenchmarkCoreSortedViewBuild(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.view, s.spare = nil, nil // force a from-scratch build
		_ = s.SortedView()
	}
}

// BenchmarkCoreViewRebuildReuse measures the full k-way merge rebuilding
// into recycled storage (invalidation with no write, steady state: 0
// allocs): what a view read pays after any write.
func BenchmarkCoreViewRebuildReuse(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	s.SortedView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.invalidate() // force the full merge, storage recycled
		_ = s.SortedView()
	}
}

// BenchmarkCoreStreamRead is a polling reader on one large sketch: n = 2²⁰
// values into a default-ε HRA sketch, then per op 64 Updates and one
// QuantilesInto of p50/p90/p99. The union arm answers as the sketch does,
// by selection over the settled levels; the view arm rebuilds the view
// before the read, as a batch query or a snapshot would, yet the read
// still selects over the levels: the arm prices the rebuild that a reader
// who also takes views pays. Each arm runs under both kernel tables (see
// benchOrders).
func BenchmarkCoreStreamRead(b *testing.B) {
	for _, arm := range []string{"union", "view"} {
		for _, ord := range benchOrders {
			b.Run(arm+"/"+ord.name, func(b *testing.B) {
				benchStreamRead(b, ord.less, arm == "view")
			})
		}
	}
}

func benchStreamRead(b *testing.B, less func(a, b float64) bool, view bool) {
	s, err := New(less, Config{Seed: 1, HRA: true})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = math.Exp(r.NormFloat64())
	}
	for i := 0; i < 1<<20; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
	phis := []float64{0.5, 0.9, 0.99}
	dst := make([]float64, len(phis))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			s.Update(vals[(i*64+j)&(1<<16-1)])
		}
		if view {
			s.SortedView()
		}
		if dst, err = s.QuantilesInto(dst, phis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreRankBatch measures batch rank queries per probe on a sketch
// whose view is current, for random (answered probe by probe) and pre-sorted probe sets.
func BenchmarkCoreRankBatch(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	s.SortedView()
	for _, size := range []int{16, 64, 1024} {
		probes := make([]float64, size)
		for i := range probes {
			probes[i] = r.Float64()
		}
		sorted := append([]float64(nil), probes...)
		sortSlice(sorted, fless)
		for _, tc := range []struct {
			name string
			ys   []float64
		}{{"random", probes}, {"sorted", sorted}} {
			b.Run(fmt.Sprintf("batch=%d/%s", size, tc.name), func(b *testing.B) {
				dst := make([]uint64, 0, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += size {
					dst = s.RankBatch(dst, tc.ys)
				}
			})
		}
	}
}

func BenchmarkCoreViewRank(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	v := s.SortedView()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += v.Rank(float64(i&1023) / 1024)
	}
	_ = sink
}

func BenchmarkCoreSnapshot(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Snapshot()
	}
}

// BenchmarkCoreClone deep-copies a grown sketch: one allocation and one
// copy per level buffer, plus the level table.
func BenchmarkCoreClone(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

// BenchmarkCoreCopyFrom refreshes a long-lived staging sketch from a live
// one — the sharded wrapper's per-epoch restage. Steady state must not
// allocate; the metric of interest is the copy cost itself.
func BenchmarkCoreCopyFrom(b *testing.B) {
	s, err := New(fless, Config{Eps: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 1<<20; i++ {
		s.Update(r.Float64())
	}
	stage := &Sketch[float64]{}
	stage.CopyFrom(s) // grow the stage's storage once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage.CopyFrom(s)
	}
}
