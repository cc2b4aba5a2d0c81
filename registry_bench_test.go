package req

// Registry benchmark suite: the keyed hot paths (Update, Quantile, churn
// under a capacity cap, windowed update+query, bulk export and restore).
// CI's bench smoke runs every target; all but the export and the restore
// read 0 allocs/op once warm.
// perfbench's keyed_ingest and checkpoint workloads measure batched ingest
// and export end to end.

import (
	"fmt"
	"testing"
	"time"
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

func BenchmarkRegistryExport(b *testing.B) {
	keys := benchRegistryKeys(1 << 10)
	vals := benchValues(1<<16, 6)
	reg, err := NewRegistryFloat64(WithEpsilon(0.01), WithSeed(6))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		reg.Update(keys[i&(1<<10-1)], vals[i])
	}
	blob, err := reg.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.MarshalBinary(); err != nil {
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
