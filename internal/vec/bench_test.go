package vec

import (
	"math/rand"
	"testing"
)

// Kernel microbenches, one per kernel. The sizes bracket the coreset
// buffers the kernels actually see: a compactor section (~1k) and a merged
// view (~64k).

func benchF64(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	return xs
}

func benchU64(n int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = r.Uint64()
	}
	return xs
}

func sizes() []struct {
	name string
	n    int
} {
	return []struct {
		name string
		n    int
	}{{"n=1k", 1 << 10}, {"n=64k", 1 << 16}}
}

func BenchmarkCountLEF64(b *testing.B) {
	for _, sz := range sizes() {
		xs := benchF64(sz.n, 1)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(sz.n * 8))
			var sink int
			for i := 0; i < b.N; i++ {
				sink += CountLE(xs, 0.5)
			}
			_ = sink
		})
	}
}

func BenchmarkCountLTU64(b *testing.B) {
	for _, sz := range sizes() {
		xs := benchU64(sz.n, 2)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(sz.n * 8))
			var sink int
			for i := 0; i < b.N; i++ {
				sink += CountLT(xs, 1<<63)
			}
			_ = sink
		})
	}
}

func BenchmarkHasNaN(b *testing.B) {
	for _, sz := range sizes() {
		xs := benchF64(sz.n, 3) // no NaN: full-scan worst case
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(sz.n * 8))
			var sink bool
			for i := 0; i < b.N; i++ {
				sink = sink != HasNaN(xs)
			}
			_ = sink
		})
	}
}

func BenchmarkSortAscF64(b *testing.B) {
	for _, sz := range sizes() {
		src := benchF64(sz.n, 4)
		buf := make([]float64, sz.n)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(sz.n * 8))
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				SortAsc(buf)
			}
		})
	}
}

func BenchmarkMergeIntoAscF64(b *testing.B) {
	for _, sz := range sizes() {
		a := benchF64(sz.n, 5)
		c := benchF64(sz.n, 6)
		SortAsc(a)
		SortAsc(c)
		dst := make([]float64, sz.n, 2*sz.n)
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(2 * sz.n * 8))
			for i := 0; i < b.N; i++ {
				copy(dst[:sz.n], a)
				MergeIntoAsc(dst[:sz.n], c)
			}
		})
	}
}

func BenchmarkKWayMergeF64(b *testing.B) {
	const ways, per = 8, 1 << 13
	var curs []KWayCursor[float64]
	for w := 0; w < ways; w++ {
		xs := benchF64(per, int64(9+w))
		SortAsc(xs)
		curs = append(curs, KWayCursor[float64]{Buf: xs, Pos: 0, End: per, Step: 1, W: 1 << uint(w)})
	}
	items := make([]float64, ways*per)
	cum := make([]uint64, ways*per)
	scratch := make([]KWayCursor[float64], ways)
	b.Run("ways=8/n=64k", func(b *testing.B) {
		b.SetBytes(int64(ways * per * 8))
		for i := 0; i < b.N; i++ {
			copy(scratch, curs)
			KWayMerge(scratch, items, cum)
		}
	})
}
