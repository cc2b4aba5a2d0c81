package req

import (
	"fmt"
	"iter"

	"req/internal/core"
)

// Snapshot is an immutable, concurrency-safe point-in-time reader over a
// sketch's weighted coreset: the sorted items, their cumulative weights
// and the exact min/max. It owns its storage, so it stays valid — and
// answers identically — forever, regardless of what the source sketch does
// next. Any number of goroutines may query one Snapshot concurrently with
// no synchronization.
//
// Every container's Snapshot() method returns this type:
//
//   - Sketch[T] (and Float64/Uint64) deep-copy their frozen coreset;
//   - Sharded[T] publishes its current epoch snapshot directly (no copy) —
//     taking snapshots of a sharded sketch between writes is free.
//
// A Snapshot answers what the source sketch would have answered at capture
// time — its batch reads (RankBatch, CDF, PMF, All) bit for bit, its ranks
// exactly, and its quantiles equal under the order: a sketch's single
// quantile read selects over its levels, so among items equal under the
// order, such as +0 and −0, it may return the other one. It carries only
// the coreset: it cannot ingest, merge, or resume the stream.
// Use Clone (or serialize the full sketch) when the mutable state must
// travel too; use Snapshot when readers only need to query.
//
// Float64 and uint64 snapshots also serialize: MarshalBinary encodes the
// coreset in the package's versioned binary format (a query-only record
// carrying no mutable sketch state) and UnmarshalSnapshotFloat64 /
// UnmarshalSnapshotUint64 restore a queryable Snapshot — the shape shipped
// to read replicas. The snapshots a RegistrySnapshot restores are windows
// of storage shared by the whole restore; see RegistrySnapshot.
type Snapshot[T any] struct {
	// v is the frozen coreset. The source's config sits beside it, not in
	// it: the view a sketch caches is a core.View too, and every exported
	// registry key keeps one.
	v   core.View[T]
	cfg core.Config
}

// SnapshotFloat64 is the float64 instantiation of Snapshot, as returned by
// Float64.Snapshot and ShardedFloat64.Snapshot.
type SnapshotFloat64 = Snapshot[float64]

// SnapshotUint64 is the uint64 instantiation of Snapshot, as returned by
// Uint64.Snapshot and ShardedUint64.Snapshot.
type SnapshotUint64 = Snapshot[uint64]

// Count returns the total number of items summarised at capture time.
//
//req:noalloc
func (sn *Snapshot[T]) Count() uint64 { return sn.v.Count() }

// Empty reports whether the snapshot summarises no items.
//
//req:noalloc
func (sn *Snapshot[T]) Empty() bool { return sn.v.Empty() }

// Min returns the smallest item seen (tracked exactly). ok is false when
// the snapshot is empty.
//
//req:noalloc
func (sn *Snapshot[T]) Min() (item T, ok bool) { return sn.v.Min() }

// Max returns the largest item seen (tracked exactly). ok is false when
// the snapshot is empty.
//
//req:noalloc
func (sn *Snapshot[T]) Max() (item T, ok bool) { return sn.v.Max() }

// Rank returns the estimated inclusive rank of y, answered by one binary
// search of the snapshot's sorted items; see Sketch.Rank for the
// guarantee.
//
//req:noalloc
func (sn *Snapshot[T]) Rank(y T) uint64 { return sn.v.Rank(y) }

// RankExclusive returns the estimated exclusive rank of y.
//
//req:noalloc
func (sn *Snapshot[T]) RankExclusive(y T) uint64 { return sn.v.RankExclusive(y) }

// NormalizedRank returns Rank(y)/Count() in [0, 1] (0 when empty).
//
//req:noalloc
func (sn *Snapshot[T]) NormalizedRank(y T) float64 { return sn.v.NormalizedRank(y) }

// RankBatch answers every probe in ys, writing into dst (grown as needed)
// in probe order: a sorted probe set with one galloping sweep, any other
// probe by probe; see Sketch.RankBatch. dst must not be shared between
// concurrent callers.
func (sn *Snapshot[T]) RankBatch(dst []uint64, ys []T) []uint64 { return sn.v.RankBatch(dst, ys) }

// NormalizedRankBatch is RankBatch normalized by Count().
func (sn *Snapshot[T]) NormalizedRankBatch(dst []float64, ys []T) []float64 {
	return sn.v.NormalizedRankBatch(dst, ys)
}

// Quantile returns the item at normalized rank phi; see Sketch.Quantile.
func (sn *Snapshot[T]) Quantile(phi float64) (T, error) { return sn.v.Quantile(phi) }

// Quantiles returns the items at each normalized rank.
func (sn *Snapshot[T]) Quantiles(phis []float64) ([]T, error) { return sn.v.QuantilesInto(nil, phis) }

// QuantilesInto answers every normalized rank in phis, writing into dst
// (grown as needed); dst must not be shared between concurrent callers.
func (sn *Snapshot[T]) QuantilesInto(dst []T, phis []float64) ([]T, error) {
	return sn.v.QuantilesInto(dst, phis)
}

// CDF returns the estimated normalized ranks at each ascending split point.
func (sn *Snapshot[T]) CDF(splits []T) ([]float64, error) { return sn.v.CDFInto(nil, splits) }

// CDFInto is CDF writing into dst (grown as needed); dst must not be shared
// between concurrent callers.
func (sn *Snapshot[T]) CDFInto(dst []float64, splits []T) ([]float64, error) {
	return sn.v.CDFInto(dst, splits)
}

// PMF returns the estimated probability mass of each interval delimited by
// the ascending split points.
func (sn *Snapshot[T]) PMF(splits []T) ([]float64, error) { return sn.v.PMFInto(nil, splits) }

// PMFInto is PMF writing into dst (grown as needed); dst must not be shared
// between concurrent callers.
func (sn *Snapshot[T]) PMFInto(dst []float64, splits []T) ([]float64, error) {
	return sn.v.PMFInto(dst, splits)
}

// ItemsRetained returns the number of coreset entries the snapshot holds.
//
//req:noalloc
func (sn *Snapshot[T]) ItemsRetained() int { return sn.v.Size() }

// All iterates the snapshot's weighted coreset: every retained item in
// ascending order with its weight. Weights sum to Count() exactly. The
// iteration allocates nothing and, the snapshot being immutable, is safe
// from any number of goroutines at once.
func (sn *Snapshot[T]) All() iter.Seq2[T, uint64] {
	return func(yield func(item T, weight uint64) bool) {
		for i, x := range sn.v.Items() {
			if !yield(x, sn.v.Weight(i)) {
				return
			}
		}
	}
}

// Epsilon returns the relative-error target the source sketch was built
// with.
func (sn *Snapshot[T]) Epsilon() float64 { return sn.cfg.Eps }

// Delta returns the failure probability the source sketch was built with.
func (sn *Snapshot[T]) Delta() float64 { return sn.cfg.Delta }

// String returns a short human-readable summary.
func (sn *Snapshot[T]) String() string {
	return fmt.Sprintf("req.Snapshot{n=%d, retained=%d}", sn.Count(), sn.ItemsRetained())
}
