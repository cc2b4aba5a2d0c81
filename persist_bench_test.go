package req

import (
	"os"
	"path/filepath"
	"testing"

	"req/internal/snapstore"
)

// Persistence benchmarks: save throughput and, the number the zero-copy
// design exists for, open-to-first-quantile latency at each verification
// level. The open benches re-open the same generation every iteration, so
// after the first iteration the file is page-cache hot — which is the
// restart scenario the format targets (warm standby, rolling restart), and
// the honest way to isolate format cost from disk speed.

func benchSnapshotDir(b *testing.B, n int) string {
	b.Helper()
	s, err := NewFloat64(WithEpsilon(0.01), WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	// Same value distribution as the in-heap benches (benchValues), so the
	// mapped-vs-heap comparison sees identical coreset shapes.
	s.UpdateBatch(benchValues(n, 2))
	dir := b.TempDir()
	if _, err := s.SaveSnapshot(dir); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkSaveSnapshotREQ measures the full durable save: payload build,
// temp write, fsync, rename, fsync(dir), prune.
func BenchmarkSaveSnapshotREQ(b *testing.B) {
	s, err := NewFloat64(WithEpsilon(0.01), WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<20; i++ {
		s.Update(float64(i%9973) * 1.5)
	}
	snap := s.Snapshot()
	dir := b.TempDir()
	var bytesPerSave int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := snap.SaveSnapshot(dir)
		if err != nil {
			b.Fatal(err)
		}
		if bytesPerSave == 0 {
			info, err := os.Stat(filepath.Join(dir, snapstore.GenName(gen)))
			if err != nil {
				b.Fatal(err)
			}
			bytesPerSave = info.Size()
		}
	}
	b.SetBytes(bytesPerSave)
}

// BenchmarkOpenSnapshotREQ measures open-to-first-quantile at each
// verification level, for a small and a large coreset. VerifyNone is the
// O(1) path: its time must not scale with the coreset.
func BenchmarkOpenSnapshotREQ(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"n=100k", 100_000}, {"n=4M", 4_000_000}} {
		dir := benchSnapshotDir(b, size.n)
		for _, lvl := range []struct {
			name string
			mode VerifyMode
		}{{"checksum", VerifyChecksum}, {"full", VerifyFull}, {"none", VerifyNone}} {
			b.Run(size.name+"/verify="+lvl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := OpenSnapshotFloat64(dir, WithVerify(lvl.mode))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := m.Quantile(0.99); err != nil {
						b.Fatal(err)
					}
					m.Close()
				}
			})
		}
	}
}

// BenchmarkMappedQueryREQ pins the steady-state query cost on a mapped
// snapshot against the in-heap snapshot baseline (BenchmarkSnapshotREQ/query):
// same ingest distribution, same varying-probe pattern, so the two numbers
// differ only by the storage backing. A fixed probe would let the branch
// predictor memorize one descent path and overstate the mapped path's speed.
func BenchmarkMappedQueryREQ(b *testing.B) {
	dir := benchSnapshotDir(b, 1<<20)
	m, err := OpenSnapshotFloat64(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	qs := benchValues(1024, 3)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Rank(qs[i&1023])
	}
	_ = sink
}
