package req

// Benchmark suite: update throughput (T1) and the cost of each
// container operation. The accuracy and space experiments (E1–E17) run in
// internal/harness, driven by cmd/reqbench and TestAllExperimentsQuick.

import (
	"fmt"
	"testing"

	"req/internal/expsampler"
	"req/internal/gk"
	"req/internal/kll"
	"req/internal/rng"
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
// Snapshot while the cached view is current (one deep copy of the sorted
// view), re-capturing after a single write (pays a full view rebuild plus
// the copy), and querying a captured snapshot (one binary search, no
// locks).
func BenchmarkSnapshotREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	vals := benchValues(1<<20, 2)
	s.UpdateBatch(vals)
	b.Run("capture", func(b *testing.B) {
		_ = s.Snapshot() // build the cached view every capture below copies
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
// All iterator, over the cached view its first walk builds.
func BenchmarkCoresetExportREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	for range s.All() { // build the cached view every walk below reads
		break
	}
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

// BenchmarkRankFrozenREQ measures rank queries on a quiesced sketch whose
// cached view is current. A single read never consults that view, so each
// query is BenchmarkRankREQ's search of every level; the one-search frozen
// Rank is a Snapshot's (BenchmarkSnapshotREQ/query).
func BenchmarkRankFrozenREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	_ = s.Snapshot() // the view is current; Rank below still reads the levels
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

// BenchmarkRankBatchREQ measures the batch rank API per probe on a sketch
// whose cached view is current (unsorted probe sets, answered probe by
// probe on the view). Compare against the single-probe cost of
// BenchmarkRankFrozenREQ, a search of every level.
func BenchmarkRankBatchREQ(b *testing.B) {
	s, _ := NewFloat64(WithEpsilon(0.01), WithSeed(1))
	s.UpdateBatch(benchValues(1<<20, 2))
	_ = s.RankBatch(nil, nil) // build the cached view every batch below reads
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
// snapshot-per-request or fork-the-state workload pays: one allocation and
// one copy per level buffer.
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
