package req

// Benchmark suite: one testing.B target per table/figure of the
// experiment index in internal/harness (T1 throughput tables plus the E*
// reproduction metrics; the full-scale versions with commentary live in
// cmd/reqbench).
//
// Accuracy/space benches report their quantity of interest through
// b.ReportMetric (items/sketch, relerr, violations) so `go test -bench`
// regenerates every table's numbers in one run.

import (
	"fmt"
	"math"
	"testing"

	"req/internal/core"
	"req/internal/exact"
	"req/internal/expsampler"
	"req/internal/gk"
	"req/internal/kll"
	"req/internal/quantile"
	"req/internal/rng"
	"req/internal/schedule"
	"req/internal/stats"
	"req/internal/streams"
	"req/internal/tdigest"
)

// benchValues returns a deterministic pseudo-random value stream.
func benchValues(n int, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * 1e6
	}
	return out
}

// --- T1: update throughput ---------------------------------------------------

func BenchmarkUpdateREQ(b *testing.B) {
	for _, eps := range []float64{0.1, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			vals := benchValues(1<<16, 1)
			s, err := NewFloat64(WithEpsilon(eps), WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(vals[i&(1<<16-1)])
			}
		})
	}
}

func BenchmarkUpdateREQHRA(b *testing.B) {
	vals := benchValues(1<<16, 1)
	s, err := NewFloat64(WithEpsilon(0.01), WithHighRankAccuracy(), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
}

// BenchmarkUpdateBatchREQ measures batch ingest normalized per item, so
// ns/op compares directly against BenchmarkUpdateREQ's per-item path.
func BenchmarkUpdateBatchREQ(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			vals := benchValues(size, 1)
			s, err := NewFloat64(WithEpsilon(0.01), WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				s.UpdateBatch(vals)
			}
		})
	}
}

// BenchmarkParallelIngestShardedBatch is the sharded writer path fed in
// 512-value batches per lock acquisition.
func BenchmarkParallelIngestShardedBatch(b *testing.B) {
	s, err := NewShardedFloat64(WithEpsilon(0.01), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	const size = 512
	vals := benchValues(size, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if i%size == 0 {
				s.UpdateBatch(vals)
			}
		}
	})
}

func BenchmarkUpdateKLL(b *testing.B) {
	vals := benchValues(1<<16, 1)
	s := kll.New(kll.KForEpsilon(0.01), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
}

func BenchmarkUpdateGK(b *testing.B) {
	vals := benchValues(1<<16, 1)
	s, err := gk.New(0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
}

func BenchmarkUpdateTDigest(b *testing.B) {
	vals := benchValues(1<<16, 1)
	s := tdigest.New(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
}

func BenchmarkUpdateExpSampler(b *testing.B) {
	vals := benchValues(1<<16, 1)
	s, err := expsampler.New(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i&(1<<16-1)])
	}
}

// --- T1: concurrent ingestion throughput ---------------------------------------

// benchParallelIngest hammers Update from every benchmark goroutine
// (GOMAXPROCS of them by default; scale with -cpu 1,4,8).
func benchParallelIngest(b *testing.B, s *ShardedFloat64) {
	vals := benchValues(1<<16, 1)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Update(vals[i&(1<<16-1)])
			i++
		}
	})
}

// BenchmarkParallelIngestSharded1 is the single-lock baseline: every
// writer contends on the one shard.
func BenchmarkParallelIngestSharded1(b *testing.B) {
	s, err := NewShardedFloat64(WithEpsilon(0.01), WithSeed(1), WithShards(1))
	if err != nil {
		b.Fatal(err)
	}
	benchParallelIngest(b, s)
}

func BenchmarkParallelIngestSharded(b *testing.B) {
	s, err := NewShardedFloat64(WithEpsilon(0.01), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	benchParallelIngest(b, s)
}

// benchMixedReadWrite interleaves a quantile query and a count read into
// the write stream every 256 operations per goroutine — the monitoring
// pattern (heavy ingest, periodic scrape).
func benchMixedReadWrite(b *testing.B, s *ShardedFloat64) {
	vals := benchValues(1<<16, 1)
	for i := 0; i < 1024; i++ {
		s.Update(vals[i])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i&255 == 255 {
				if _, err := s.Quantile(0.99); err != nil {
					b.Fatal(err)
				}
				_ = s.Count()
			} else {
				s.Update(vals[i&(1<<16-1)])
			}
			i++
		}
	})
}

// BenchmarkMixedReadWriteSharded1 is the single-lock baseline of the mixed
// body: one shard, so every read after a write restages that one shard.
func BenchmarkMixedReadWriteSharded1(b *testing.B) {
	s, err := NewShardedFloat64(WithEpsilon(0.01), WithSeed(1), WithShards(1))
	if err != nil {
		b.Fatal(err)
	}
	benchMixedReadWrite(b, s)
}

func BenchmarkMixedReadWriteSharded(b *testing.B) {
	s, err := NewShardedFloat64(WithEpsilon(0.01), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	benchMixedReadWrite(b, s)
}

// BenchmarkShardedSnapshot measures the cost of the lazy merged-snapshot
// rebuild that a query pays after writes touched every shard.
func BenchmarkShardedSnapshot(b *testing.B) {
	s, err := NewShardedFloat64(WithEpsilon(0.01), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	vals := benchValues(1<<20, 2)
	for _, v := range vals {
		s.Update(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Invalidate so every iteration pays one full rebuild.
		s.Update(vals[i&(1<<20-1)])
		if _, err := s.Quantile(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotREQ measures the immutable-snapshot path: capturing a
// Snapshot from a plain sketch (one deep copy of the frozen coreset),
// re-capturing after a single write (pays a full view rebuild plus the
// copy), and querying a captured snapshot (a pure indexed read, no
// locks).
func BenchmarkSnapshotREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	vals := benchValues(1<<20, 2)
	s.UpdateBatch(vals)
	b.Run("capture", func(b *testing.B) {
		s.Freeze()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Snapshot()
		}
	})
	b.Run("capture-after-write", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Update(vals[i&(1<<20-1)])
			_ = s.Snapshot()
		}
	})
	b.Run("query", func(b *testing.B) {
		snap := s.Snapshot()
		qs := benchValues(1024, 3)
		b.ReportAllocs()
		b.ResetTimer()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += snap.Rank(qs[i&1023])
		}
		_ = sink
	})
}

// BenchmarkSnapshotShardedREQ measures Snapshot on the sharded wrapper:
// between writes it hands out the published epoch snapshot (an atomic load
// plus staleness check, no clone — "shared"), and after a write it pays the
// epoch rebuild ("after-write", the same restage+merge+freeze the first
// query after a write pays; compare BenchmarkShardedSnapshot).
func BenchmarkSnapshotShardedREQ(b *testing.B) {
	s, err := NewShardedFloat64(WithEpsilon(0.01), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	vals := benchValues(1<<20, 2)
	for _, v := range vals {
		s.Update(v)
	}
	b.Run("shared", func(b *testing.B) {
		_ = s.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Snapshot()
		}
	})
	b.Run("after-write", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Update(vals[i&(1<<20-1)])
			_ = s.Snapshot()
		}
	})
}

// BenchmarkCoresetExportREQ walks the coreset through the allocation-free
// All iterator.
func BenchmarkCoresetExportREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	s.Freeze()
	b.Run("All", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var sink uint64
		for i := 0; i < b.N; i++ {
			for _, w := range s.All() {
				sink += w
			}
		}
		_ = sink
	})
}

// --- T1: query latency ---------------------------------------------------------

func BenchmarkRankREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	qs := benchValues(1024, 3)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Rank(qs[i&1023])
	}
	_ = sink
}

// BenchmarkRankFrozenREQ measures rank queries on a quiesced (frozen)
// sketch: Rank routes through the cached sorted view, so each query is two
// binary searches instead of any per-level work.
func BenchmarkRankFrozenREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	s.Freeze()
	qs := benchValues(1024, 3)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Rank(qs[i&1023])
	}
	_ = sink
}

// BenchmarkMixedREQ interleaves writes and quantile queries at several
// write:read ratios on a single sketch — the monitoring pattern. Every
// query is a first-query-after-writes: it settles the levels (sorting the
// level-0 tail appended since the last query) and selects over them,
// building no view.
func BenchmarkMixedREQ(b *testing.B) {
	for _, writes := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("w:r=%d:1", writes), func(b *testing.B) {
			s, err := NewFloat64(WithEpsilon(0.01), WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			vals := benchValues(1<<20, 2)
			s.UpdateBatch(vals)
			_, _ = s.Quantile(0.5) // warm the view
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%(writes+1) == writes {
					if _, err := s.Quantile(0.99); err != nil {
						b.Fatal(err)
					}
				} else {
					s.Update(vals[i&(1<<20-1)])
				}
			}
		})
	}
}

// BenchmarkRankBatchREQ measures the batch rank API per probe on a frozen
// sketch (unsorted probe sets; the batch sorts an index permutation once
// and answers with one galloping sweep). Compare against the single-probe
// cost of BenchmarkRankFrozenREQ.
func BenchmarkRankBatchREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	s.Freeze()
	for _, size := range []int{16, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			probes := benchValues(size, 3)
			dst := make([]uint64, 0, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				dst = s.RankBatch(dst, probes)
			}
		})
	}
}

func BenchmarkQuantileREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	_, _ = s.Quantile(0.5) // build the sorted view once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := float64(i&1023) / 1024
		if _, err := s.Quantile(phi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeREQ(b *testing.B) {
	// Rebuilding inputs per iteration would swamp the run, so the target is
	// reconstituted from a pre-serialized blob each round (decode cost is
	// excluded via timer control) and merges the same source sketch.
	x, _ := NewFloat64(WithEpsilon(0.02), WithSeed(1))
	y, _ := NewFloat64(WithEpsilon(0.02), WithSeed(2))
	x.UpdateBatch(benchValues(1<<15, 3))
	y.UpdateBatch(benchValues(1<<15, 4))
	blob, err := x.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		target, err := DecodeFloat64(blob)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := target.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeSteadyREQ merges into one long-lived target, the shape of
// a fan-in aggregator. After the first merge has grown the target's
// reusable settle scratch and special-compaction stage, subsequent merges
// stop allocating for those steps (compare allocs/op with BenchmarkMergeREQ,
// whose target is reconstituted from a blob every iteration).
func BenchmarkMergeSteadyREQ(b *testing.B) {
	x, _ := NewFloat64(WithEpsilon(0.02), WithSeed(1))
	y, _ := NewFloat64(WithEpsilon(0.02), WithSeed(2))
	x.UpdateBatch(benchValues(1<<15, 3))
	y.UpdateBatch(benchValues(1<<15, 4))
	if err := x.Merge(y); err != nil { // warm scratch, stage, capacities
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloneREQ deep-copies a grown sketch — the per-call cost a
// snapshot-per-request or fork-the-state workload pays. Sensitive to how
// level storage is laid out: fragmented per-level buffers cost O(levels)
// allocations and copies, a contiguous slab one of each.
func BenchmarkCloneREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

func BenchmarkSerializeREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	blob, err := s.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeserializeREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	blob, err := s.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFloat64(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-series: reproduction metrics (scaled down; full runs in reqbench) -------

// reportRelErr runs one accuracy trial and reports the worst relative error
// over log-spaced ranks as the bench metric.
func relErrOnce(cfg core.Config, n int, order streams.Order, seed uint64) float64 {
	r := rng.New(seed)
	vals := streams.Permutation{}.Generate(n, r)
	streams.Arrange(vals, order, r)
	cfg.Seed = seed
	sk, err := quantile.NewREQ(cfg, "req")
	if err != nil {
		panic(err)
	}
	for _, v := range vals {
		sk.Update(v)
	}
	worst := 0.0
	for rank := uint64(1); rank <= uint64(n); rank *= 2 {
		est := float64(sk.Rank(float64(rank - 1)))
		rel := stats.RelErr(est, float64(rank))
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

func BenchmarkE1ErrorVsRank(b *testing.B) {
	const n = 1 << 15
	worst := 0.0
	for i := 0; i < b.N; i++ {
		w := relErrOnce(core.Config{Eps: 0.05, Delta: 0.05}, n, streams.OrderAsGenerated, uint64(i))
		if w > worst {
			worst = w
		}
	}
	b.ReportMetric(worst, "max-relerr")
}

func BenchmarkE2SpaceVsN(b *testing.B) {
	for _, pow := range []int{14, 16, 18} {
		pow := pow
		b.Run(fmt.Sprintf("n=2^%d", pow), func(b *testing.B) {
			items := 0
			for i := 0; i < b.N; i++ {
				sk, _ := quantile.NewREQ(core.Config{Eps: 0.02, Delta: 0.05, Seed: uint64(i)}, "req")
				r := rng.New(uint64(i))
				for _, v := range r.Perm(1 << pow) {
					sk.Update(float64(v))
				}
				items = sk.ItemsRetained()
			}
			b.ReportMetric(float64(items), "items/sketch")
		})
	}
}

func BenchmarkE3SpaceVsEps(b *testing.B) {
	for _, eps := range []float64{0.1, 0.05, 0.02} {
		eps := eps
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			var reqItems, samplerItems int
			for i := 0; i < b.N; i++ {
				vals := benchValues(1<<15, uint64(i))
				sk, _ := quantile.NewREQ(core.Config{Eps: eps, Delta: 0.05, Seed: uint64(i)}, "req")
				sm, _ := expsampler.New(eps, uint64(i))
				for _, v := range vals {
					sk.Update(v)
					sm.Update(v)
				}
				reqItems, samplerItems = sk.ItemsRetained(), sm.ItemsRetained()
			}
			b.ReportMetric(float64(reqItems), "req-items")
			b.ReportMetric(float64(samplerItems), "sampler-items")
		})
	}
}

func BenchmarkE4TailAccuracy(b *testing.B) {
	const n = 1 << 16
	var reqErr, kllErr float64
	for i := 0; i < b.N; i++ {
		vals := streams.Latency{}.Generate(n, rng.New(uint64(i)))
		oracle := exact.FromValues(vals)
		hra, _ := NewFloat64(WithEpsilon(0.01), WithHighRankAccuracy(), WithSeed(uint64(i)))
		kl := kll.New(kll.KForEpsilon(0.01), uint64(i))
		for _, v := range vals {
			hra.Update(v)
			kl.Update(v)
		}
		nf := float64(n)
		rank := uint64(0.999 * nf)
		y := oracle.ItemOfRank(rank)
		truth := float64(oracle.Rank(y))
		tail := float64(n) - truth + 1
		reqErr = math.Abs(float64(hra.Rank(y))-truth) / tail
		kllErr = math.Abs(float64(kl.Rank(y))-truth) / tail
	}
	b.ReportMetric(reqErr, "req-p999-tailerr")
	b.ReportMetric(kllErr, "kll-p999-tailerr")
}

func BenchmarkE5FailureProb(b *testing.B) {
	const n = 1 << 13
	const eps = 0.1
	violations, checks := 0, 0
	for i := 0; i < b.N; i++ {
		sk, _ := quantile.NewREQ(core.Config{Eps: eps, Delta: 0.1, Seed: uint64(i)}, "req")
		r := rng.New(uint64(i) + 999)
		for _, v := range r.Perm(n) {
			sk.Update(float64(v))
		}
		for rank := uint64(1); rank <= n; rank *= 4 {
			est := float64(sk.Rank(float64(rank - 1)))
			if stats.RelErr(est, float64(rank)) > eps {
				violations++
			}
			checks++
		}
	}
	b.ReportMetric(float64(violations)/float64(checks), "violation-rate")
}

func BenchmarkE6Mergeability(b *testing.B) {
	const n = 1 << 15
	const shards = 8
	worst := 0.0
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		perm := r.Perm(n)
		var acc *core.Sketch[float64]
		for s := 0; s < shards; s++ {
			sk, _ := core.New(core.LessF64,
				core.Config{Eps: 0.05, Delta: 0.05, Seed: uint64(i*100 + s)})
			for j := s; j < n; j += shards {
				sk.Update(float64(perm[j]))
			}
			if acc == nil {
				acc = sk
			} else if err := acc.Merge(sk); err != nil {
				b.Fatal(err)
			}
		}
		for rank := uint64(1); rank <= n; rank *= 4 {
			rel := stats.RelErr(float64(acc.Rank(float64(rank-1))), float64(rank))
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst, "max-relerr")
}

func BenchmarkE7OrderRobustness(b *testing.B) {
	for _, order := range []streams.Order{streams.OrderSorted, streams.OrderReversed, streams.OrderZipper} {
		order := order
		b.Run(order.String(), func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				w := relErrOnce(core.Config{Eps: 0.05, Delta: 0.05}, 1<<14, order, uint64(i))
				if w > worst {
					worst = w
				}
			}
			b.ReportMetric(worst, "max-relerr")
		})
	}
}

func BenchmarkE8UnknownN(b *testing.B) {
	const n = 1 << 16
	var growths uint64
	var items int
	for i := 0; i < b.N; i++ {
		sk, _ := quantile.NewREQ(core.Config{Eps: 0.05, Delta: 0.05, N0: 1 << 12, Seed: uint64(i)}, "req")
		r := rng.New(uint64(i))
		for _, v := range r.Perm(n) {
			sk.Update(float64(v))
		}
		growths = sk.Core().Stats().Growths
		items = sk.ItemsRetained()
	}
	b.ReportMetric(float64(growths), "growths")
	b.ReportMetric(float64(items), "items/sketch")
}

func BenchmarkE9DeltaScaling(b *testing.B) {
	for _, delta := range []float64{1e-2, 1e-6, 1e-12} {
		delta := delta
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			var thm1, thm2 int
			for i := 0; i < b.N; i++ {
				vals := benchValues(1<<15, uint64(i))
				a, _ := quantile.NewREQ(core.Config{Eps: 0.05, Delta: delta, Seed: uint64(i)}, "a")
				c, _ := quantile.NewREQ(core.Config{Mode: core.ModeTheorem2, Eps: 0.05, Delta: delta, Seed: uint64(i)}, "c")
				for _, v := range vals {
					a.Update(v)
					c.Update(v)
				}
				thm1, thm2 = a.ItemsRetained(), c.ItemsRetained()
			}
			b.ReportMetric(float64(thm1), "thm1-items")
			b.ReportMetric(float64(thm2), "thm2-items")
		})
	}
}

func BenchmarkE10Deterministic(b *testing.B) {
	worst := 0.0
	for i := 0; i < b.N; i++ {
		w := relErrOnce(core.Config{Mode: core.ModeTheorem2, Eps: 0.1, Delta: 1e-18},
			1<<14, streams.OrderZipper, uint64(i))
		if w > worst {
			worst = w
		}
	}
	b.ReportMetric(worst, "max-relerr")
}

func BenchmarkE11ScheduleAblation(b *testing.B) {
	for _, kind := range []schedule.Kind{schedule.Exponential, schedule.Naive} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				w := relErrOnce(core.Config{Eps: 0.05, Delta: 0.05, Schedule: kind},
					1<<14, streams.OrderZipper, uint64(i))
				if w > worst {
					worst = w
				}
			}
			b.ReportMetric(worst, "max-relerr")
		})
	}
}

func BenchmarkE12CoinAblation(b *testing.B) {
	const n = 1 << 14
	bias := 0.0
	for i := 0; i < b.N; i++ {
		cfg := core.Config{Eps: 0.05, Delta: 0.05, DetCoin: true, Seed: uint64(i)}
		sk, _ := quantile.NewREQ(cfg, "req-det")
		for j := 0; j < n; j++ {
			sk.Update(float64(j))
		}
		var sum float64
		var cnt int
		for rank := uint64(64); rank <= n; rank *= 2 {
			est := float64(sk.Rank(float64(rank - 1)))
			sum += stats.SignedRelErr(est, float64(rank))
			cnt++
		}
		bias = sum / float64(cnt)
	}
	b.ReportMetric(bias, "mean-signed-err")
}

func BenchmarkE13LowerBound(b *testing.B) {
	correct, total := 0, 0
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		lb, err := streams.NewLowerBound(0.05, 7, 1<<16, r)
		if err != nil {
			b.Fatal(err)
		}
		vals := lb.Values()
		streams.Arrange(vals, streams.OrderShuffled, r)
		sk, _ := quantile.NewREQ(core.Config{Eps: 0.05 / 3, Delta: 1e-9, Seed: uint64(i)}, "req")
		for _, v := range vals {
			sk.Update(v)
		}
		decoded := lb.Decode(sk.Rank)
		for j := range decoded {
			if decoded[j] == lb.S[j] {
				correct++
			}
			total++
		}
	}
	b.ReportMetric(float64(correct)/float64(total), "decode-rate")
}

func BenchmarkE14Levels(b *testing.B) {
	const n = 1 << 18
	var levels int
	for i := 0; i < b.N; i++ {
		sk, _ := quantile.NewREQ(core.Config{Eps: 0.05, Delta: 0.05, Seed: uint64(i)}, "req")
		r := rng.New(uint64(i))
		for _, v := range r.Perm(n) {
			sk.Update(float64(v))
		}
		levels = sk.Core().NumLevels()
	}
	b.ReportMetric(float64(levels), "levels")
}
