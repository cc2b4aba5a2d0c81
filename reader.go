package req

import "iter"

// Reader is the complete query surface of the package: every container —
// the single-goroutine Sketch[T] (and its Float64/Uint64 aliases),
// the concurrent Sharded[T] (and ShardedFloat64/ShardedUint64), and the
// immutable Snapshot[T] — satisfies it, so query-side code can be written
// once against Reader and handed any of them.
//
// Writer methods (Update, Merge, Reset, …) are deliberately excluded: the
// package splits the API into writers and readers in the DataSketches
// style, and a Snapshot — the reader you can ship across goroutines or
// processes — has no write half at all.
//
// Implementations differ only in synchronization and staleness, not in
// semantics: a Snapshot answers from one immutable coreset; Sharded
// answers every query from one consistent published epoch snapshot (Count
// runs slightly ahead of it, served by live per-shard counters); a Sketch
// answers its single reads (Rank, RankExclusive, Quantile, Quantiles,
// QuantilesInto) from its levels and the rest from a sorted view it merges
// on every call, which agree under the order — among items equal under
// it, such as +0 and −0, a Sketch's quantile may name the other one than a
// Snapshot taken from it. The ...Into and ...Batch variants write into
// caller-supplied storage — their dst slices must not be shared between
// concurrent callers even on concurrency-safe readers.
type Reader[T any] interface {
	// Count returns the total number of items summarised.
	Count() uint64
	// Empty reports whether no items have been summarised.
	Empty() bool
	// Min returns the smallest item seen (tracked exactly); ok is false
	// when empty.
	Min() (item T, ok bool)
	// Max returns the largest item seen (tracked exactly); ok is false
	// when empty.
	Max() (item T, ok bool)
	// Rank returns the estimated inclusive rank of y (#items ≤ y).
	Rank(y T) uint64
	// RankExclusive returns the estimated exclusive rank of y (#items < y).
	RankExclusive(y T) uint64
	// NormalizedRank returns Rank(y)/Count() in [0, 1] (0 when empty).
	NormalizedRank(y T) float64
	// RankBatch answers Rank for every probe in ys, writing into dst
	// (grown as needed) in probe order.
	RankBatch(dst []uint64, ys []T) []uint64
	// NormalizedRankBatch is RankBatch normalized by Count().
	NormalizedRankBatch(dst []float64, ys []T) []float64
	// Quantile returns the item at normalized rank phi ∈ [0, 1].
	Quantile(phi float64) (T, error)
	// Quantiles returns the items at each normalized rank.
	Quantiles(phis []float64) ([]T, error)
	// QuantilesInto is Quantiles writing into dst (grown as needed).
	QuantilesInto(dst []T, phis []float64) ([]T, error)
	// CDF returns the estimated normalized ranks at each ascending split
	// point; the result has one more entry than splits, the last being 1.
	// Splits out of order, or a NaN split, fail with an error.
	CDF(splits []T) ([]float64, error)
	// CDFInto is CDF writing into dst (grown as needed).
	CDFInto(dst []float64, splits []T) ([]float64, error)
	// PMF returns the estimated probability mass of each interval
	// delimited by the ascending split points.
	PMF(splits []T) ([]float64, error)
	// PMFInto is PMF writing into dst (grown as needed).
	PMFInto(dst []float64, splits []T) ([]float64, error)
	// ItemsRetained returns the number of items currently stored.
	ItemsRetained() int
	// All iterates the weighted coreset: every retained item in ascending
	// order with the weight it carries. Weights sum to Count() exactly.
	All() iter.Seq2[T, uint64]
}

// Compile-time proof that every container exposes the full query surface.
// Adding a method to Reader forces every container to grow it; removing one
// from a container breaks the build here, not in a user's code. The typed
// names (Float64, ShardedUint64, SnapshotFloat64, …) are aliases of these.
var (
	_ Reader[float64] = (*Sketch[float64])(nil)
	_ Reader[float64] = (*Sharded[float64])(nil)
	_ Reader[float64] = (*Snapshot[float64])(nil)
)
