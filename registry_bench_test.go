package req

// Registry benchmark suite: the keyed hot paths (Update, Quantile, churn
// under a capacity cap, windowed update+query, bulk export, one key's
// Snapshot and restore). CI's bench smoke runs every target; all but the
// export, the Snapshot and the restore read 0 allocs/op once warm.
// perfbench's keyed_ingest and checkpoint workloads measure batched ingest
// and export end to end.

import (
	"fmt"
	"testing"
	"time"

	"req/internal/rng"
)

// benchRegistryKeys returns n distinct key names, preallocated so key
// formatting never lands inside a timed loop.
func benchRegistryKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%05d", i)
	}
	return keys
}

func BenchmarkRegistryUpdate(b *testing.B) {
	keys := benchRegistryKeys(1 << 10)
	vals := benchValues(1<<16, 1)
	reg, err := NewRegistryFloat64(WithEpsilon(0.01), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys { // resident population before timing
		reg.Update(k, vals[i&(1<<16-1)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Update(keys[i&(1<<10-1)], vals[i&(1<<16-1)])
	}
}

func BenchmarkRegistryQuantile(b *testing.B) {
	keys := benchRegistryKeys(1 << 8)
	vals := benchValues(1<<16, 2)
	reg, err := NewRegistryFloat64(WithEpsilon(0.01), WithSeed(2))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<14; i++ {
		reg.Update(keys[i&(1<<8-1)], vals[i&(1<<16-1)])
	}
	for _, k := range keys { // freeze every view before timing
		if _, err := reg.Quantile(k, 0.5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Quantile(keys[i&(1<<8-1)], 0.99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryChurn(b *testing.B) {
	const cap = 1 << 8
	keys := benchRegistryKeys(1 << 12) // 16x the cap: every pass evicts
	vals := benchValues(1<<16, 3)
	var now int64
	reg, err := NewRegistryFloat64(
		WithEpsilon(0.01), WithSeed(3),
		WithMaxEntries(cap),
		WithTTL(time.Second),
		WithClock(func() int64 { return now }),
	)
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys { // one warm sweep grows every freelist
		reg.Update(k, vals[i&(1<<16-1)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Update(keys[i&(1<<12-1)], vals[i&(1<<16-1)])
	}
}

func BenchmarkWindowedRegistryUpdate(b *testing.B) {
	keys := benchRegistryKeys(1 << 8)
	vals := benchValues(1<<16, 4)
	var now int64
	reg, err := NewWindowedRegistryFloat64(
		WithEpsilon(0.01), WithSeed(4),
		WithWindow(8, time.Second),
		WithClock(func() int64 { return now }),
	)
	if err != nil {
		b.Fatal(err)
	}
	for ep := 0; ep < 16; ep++ { // warm through two full ring laps
		now = int64(ep) * int64(time.Second)
		for i, k := range keys {
			reg.Update(k, vals[(ep+i)&(1<<16-1)])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<12-1) == 0 {
			now += int64(time.Second) // rotation stays on the timed path
		}
		reg.Update(keys[i&(1<<8-1)], vals[i&(1<<16-1)])
	}
}

func BenchmarkWindowedRegistryQuery(b *testing.B) {
	keys := benchRegistryKeys(1 << 8)
	vals := benchValues(1<<16, 5)
	var now int64
	reg, err := NewWindowedRegistryFloat64(
		WithEpsilon(0.01), WithSeed(5),
		WithWindow(8, time.Second),
		WithClock(func() int64 { return now }),
	)
	if err != nil {
		b.Fatal(err)
	}
	phis := []float64{0.5, 0.99}
	dst := make([]float64, 0, len(phis))
	for ep := 0; ep < 16; ep++ {
		now = int64(ep) * int64(time.Second)
		for i, k := range keys {
			reg.Update(k, vals[(ep+i)&(1<<16-1)])
		}
	}
	for _, k := range keys { // grow every per-shard union scratch
		if _, err := reg.QuantilesInto(k, dst, phis); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.QuantilesInto(keys[i&(1<<8-1)], dst, phis); err != nil {
			b.Fatal(err)
		}
	}
}

// checkpointRegistry builds a registry at perfbench's checkpoint shape:
// 2,048 keys of 64 values each under WithK(16) and
// WithHighRankAccuracy().
func checkpointRegistry(tb testing.TB, seed uint64) (*RegistryFloat64, []string) {
	tb.Helper()
	keys := benchRegistryKeys(1 << 11)
	vals := benchValues(64<<11, seed)
	reg, err := NewRegistryFloat64(WithK(16), WithHighRankAccuracy(), WithSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	for i, k := range keys {
		reg.UpdateBatch(k, vals[64*i:64*(i+1)])
	}
	return reg, keys
}

// checkpointBatch fills ks and vs with one checkpoint-shaped batch: runs
// of 8 values, 80% of the runs on the first 0.1% of the keys (two of
// 2,048) and the rest on keys drawn uniformly.
func checkpointBatch(r *rng.Source, keys, ks []string, vs []float64) {
	hot := max(1, len(keys)/1000)
	for i := 0; i < len(ks); i += 8 {
		k := keys[r.Intn(len(keys))]
		if r.Float64() < 0.8 {
			k = keys[r.Intn(hot)]
		}
		for j := i; j < min(i+8, len(ks)); j++ {
			ks[j], vs[j] = k, r.Float64()*1e6
		}
	}
}

// BenchmarkRegistryExport exports a registry at the checkpoint shape (see
// checkpointRegistry). clean exports with no write since the last export,
// so every record is the kept one; batch lands one checkpoint-shaped
// batch of 256 pairs before each export; all-dirty writes every key once
// before each export, which stands for traffic that writes every key
// between checkpoints and is the incremental export's worst case. The
// writes run outside the timer.
func BenchmarkRegistryExport(b *testing.B) {
	for _, mode := range []string{"clean", "batch", "all-dirty"} {
		b.Run(mode, func(b *testing.B) {
			reg, keys := checkpointRegistry(b, 6)
			r := rng.New(6)
			ks, vs := make([]string, 256), make([]float64, 256)
			blob, err := reg.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch mode {
				case "batch":
					b.StopTimer()
					checkpointBatch(r, keys, ks, vs)
					reg.UpdatePairs(ks, vs)
					b.StartTimer()
				case "all-dirty":
					b.StopTimer()
					for _, k := range keys {
						reg.Update(k, r.Float64()*1e6)
					}
					b.StartTimer()
				}
				if _, err := reg.MarshalBinary(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegistrySnapshot takes one key's Snapshot at a time across a
// checkpoint-shaped registry with no writes: each call settles and merges
// the key's levels into the arrays it returns.
func BenchmarkRegistrySnapshot(b *testing.B) {
	reg, keys := checkpointRegistry(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Snapshot(keys[i&(len(keys)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryDecode restores a registry blob at perfbench's
// checkpoint shape: 2,048 keys of 64 values each under WithK(16) and
// WithHighRankAccuracy(). Every record decodes into the restore's shared
// arenas, so allocs/op grows with the key count only by the key map's
// tables.
func BenchmarkRegistryDecode(b *testing.B) {
	keys := benchRegistryKeys(1 << 11)
	vals := benchValues(1<<17, 9)
	reg, err := NewRegistryFloat64(WithK(16), WithHighRankAccuracy(), WithSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys {
		reg.UpdateBatch(k, vals[64*i:64*(i+1)])
	}
	blob, err := reg.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalRegistryFloat64(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryUpdatePairs measures the shard-grouped batched ingest
// against the per-op loop at the same key mix, across batch sizes. One
// op = one whole batch; divide ns/op by the batch size to compare with
// BenchmarkRegistryUpdate.
func BenchmarkRegistryUpdatePairs(b *testing.B) {
	keys := benchRegistryKeys(1 << 10)
	vals := benchValues(1<<16, 7)
	for _, batch := range []int{16, 256, 4096} {
		bk := make([]string, batch)
		bv := make([]float64, batch)
		for i := range bk {
			bk[i] = keys[(i*7)&(1<<10-1)]
			bv[i] = vals[i&(1<<16-1)]
		}
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			reg, err := NewRegistryFloat64(WithEpsilon(0.01), WithSeed(7))
			if err != nil {
				b.Fatal(err)
			}
			for i, k := range keys {
				reg.Update(k, vals[i&(1<<16-1)])
			}
			reg.UpdatePairs(bk, bv) // grow the pooled scratch before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg.UpdatePairs(bk, bv)
			}
		})
		b.Run(fmt.Sprintf("peropLoop/batch=%d", batch), func(b *testing.B) {
			reg, err := NewRegistryFloat64(WithEpsilon(0.01), WithSeed(7))
			if err != nil {
				b.Fatal(err)
			}
			for i, k := range keys {
				reg.Update(k, vals[i&(1<<16-1)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range bk {
					reg.Update(bk[j], bv[j])
				}
			}
		})
	}
}

func BenchmarkWindowedRegistryUpdatePairs(b *testing.B) {
	keys := benchRegistryKeys(1 << 8)
	vals := benchValues(1<<16, 8)
	const batch = 256
	bk := make([]string, batch)
	bv := make([]float64, batch)
	for i := range bk {
		bk[i] = keys[(i*3)&(1<<8-1)]
		bv[i] = vals[i&(1<<16-1)]
	}
	var now int64
	reg, err := NewWindowedRegistryFloat64(
		WithEpsilon(0.01), WithSeed(8),
		WithWindow(8, time.Second),
		WithClock(func() int64 { return now }),
	)
	if err != nil {
		b.Fatal(err)
	}
	for ep := 0; ep < 16; ep++ { // warm through two full ring laps
		now = int64(ep) * int64(time.Second)
		reg.UpdatePairs(bk, bv)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&15 == 0 {
			now += int64(time.Second) // rotation stays on the timed path
		}
		reg.UpdatePairs(bk, bv)
	}
}
