package req

import (
	"errors"
	"fmt"
	"iter"

	"req/internal/core"
)

// Sketch estimates ranks and quantiles of a stream of items of type T under
// a caller-supplied strict total order, with multiplicative rank error. See
// the package documentation for the guarantee. Not safe for concurrent use.
type Sketch[T any] struct {
	core *core.Sketch[T]
}

// New returns an empty sketch over the strict order less (less(a, b) must
// report whether a orders before b) configured by opts.
func New[T any](less func(a, b T) bool, opts ...Option) (*Sketch[T], error) {
	st, err := buildSettings(opts)
	if err != nil {
		return nil, err
	}
	c, err := core.New(less, st.Config)
	if err != nil {
		return nil, err
	}
	return &Sketch[T]{core: c}, nil
}

// Float64 is a sketch of float64 values under their natural order, the
// common case for measurements such as latencies. A NaN is ignored on
// every write path; ±Inf are accepted and behave as extreme values. Rank
// queries do not screen NaN probes: a NaN has no rank under <. CDF and PMF
// refuse a NaN split point with an error. MarshalBinary encodes the sketch
// and DecodeFloat64 restores it. Not safe for concurrent use.
type Float64 = Sketch[float64]

// NewFloat64 returns an empty float64 sketch configured by opts. Values
// compare by the usual < order (the canonical core.LessF64, which selects
// the monomorphic kernel table — see "Kernel tables" in doc.go).
func NewFloat64(opts ...Option) (*Float64, error) { return New(core.LessF64, opts...) }

// Uint64 is a sketch of uint64 values under their natural order —
// timestamps, byte counts, identifiers with a meaningful order.
// MarshalBinary encodes it and DecodeUint64 restores it. Not safe for
// concurrent use.
type Uint64 = Sketch[uint64]

// NewUint64 returns an empty uint64 sketch configured by opts. Values
// compare by the usual < order (the canonical core.LessU64, which selects
// the monomorphic kernel table).
func NewUint64(opts ...Option) (*Uint64, error) { return New(core.LessU64, opts...) }

// Update inserts one item into the sketch. Under the float64 order of
// NewFloat64 a NaN is ignored: it has no place in a total order.
func (s *Sketch[T]) Update(item T) {
	s.core.Update(item)
}

// UpdateBatch inserts every item of the slice through the batch ingest
// path: min/max tracking, view invalidation, bound checks, and compaction
// cascades are amortized across the whole batch instead of paid per item.
// Prefer it over per-item Update whenever the values are already in a slice
// (log shipping, columnar scans, windowed aggregation). The slice is only
// read, never retained. NaNs are skipped as in Update; the slice is copied
// only if it holds one.
func (s *Sketch[T]) UpdateBatch(items []T) {
	s.core.UpdateBatch(items)
}

// UpdateWeighted inserts item with the given integer weight, equivalent to
// weight repeated Updates but in O(log weight + sketch buffer) work: the
// weight decomposes in binary across the sketch's levels. Weight 0, and an
// item Update would ignore, are no-ops. It returns an error only if the
// total weight would overflow the representable stream length (2⁶²).
func (s *Sketch[T]) UpdateWeighted(item T, weight uint64) error {
	return s.core.UpdateWeighted(item, weight)
}

// Merge absorbs other into s, summarising the concatenation of both inputs
// with the paper's full-mergeability guarantee (Theorem 3). The other
// sketch is not modified. Sketches must be built with compatible options
// (same accuracy parameters and rank-accuracy side) and the same less
// function, compared by its code: a sketch under another function, even one
// with an identical body, is refused, as is merging s with itself. A
// refused merge leaves s unchanged.
func (s *Sketch[T]) Merge(other *Sketch[T]) error {
	if other == nil {
		return nil
	}
	return s.core.Merge(other.core)
}

// Count returns the total number of items summarised.
func (s *Sketch[T]) Count() uint64 { return s.core.Count() }

// Empty reports whether the sketch has seen no items.
func (s *Sketch[T]) Empty() bool { return s.core.Empty() }

// Min returns the smallest item seen (tracked exactly). ok is false when
// the sketch is empty.
func (s *Sketch[T]) Min() (item T, ok bool) { return s.core.Min() }

// Max returns the largest item seen (tracked exactly). ok is false when the
// sketch is empty.
func (s *Sketch[T]) Max() (item T, ok bool) { return s.core.Max() }

// Rank returns the estimated inclusive rank of y: the number of stream
// items ≤ y. The guarantee is |R̂(y) − R(y)| ≤ ε·R(y) with probability 1−δ
// (for high-rank-accuracy sketches, the guarantee is on n − R(y) instead).
func (s *Sketch[T]) Rank(y T) uint64 { return s.core.Rank(y) }

// RankExclusive returns the estimated exclusive rank of y: the number of
// stream items strictly less than y.
func (s *Sketch[T]) RankExclusive(y T) uint64 { return s.core.RankExclusive(y) }

// NormalizedRank returns Rank(y)/Count() in [0, 1].
func (s *Sketch[T]) NormalizedRank(y T) float64 { return s.core.NormalizedRank(y) }

// Quantile returns the item at normalized rank phi ∈ [0, 1]: the smallest
// retained item whose estimated rank reaches ⌈phi·n⌉. Quantile(0) is the
// exact minimum and Quantile(1) the exact maximum. It returns ErrEmpty on
// an empty sketch and ErrBadRank for phi outside [0, 1]. The read selects
// over the sketch's sorted levels and builds no view (see QuantilesInto).
func (s *Sketch[T]) Quantile(phi float64) (T, error) { return s.core.Quantile(phi) }

// Quantiles returns the items at each normalized rank, sharing one read
// of the sketch (see QuantilesInto). It allocates its result; hot paths that query
// repeatedly should prefer QuantilesInto with a reused destination.
func (s *Sketch[T]) Quantiles(phis []float64) ([]T, error) { return s.core.Quantiles(phis) }

// QuantilesInto answers every normalized rank in phis, writing into dst
// (grown as needed — pass the previous result back in for steady-state
// allocation-free querying) and returning it with length len(phis). Like
// Quantile, it selects over the sorted levels without building a view; an
// ascending phis narrows the selection as it goes. A single read never
// consults the sorted view that Snapshot, All and the batch queries cache,
// so it answers the same bits whether or not that view is current. Its
// answers equal a Snapshot's under the order: among items equal under it,
// such as +0 and −0, the two may return different ones.
func (s *Sketch[T]) QuantilesInto(dst []T, phis []float64) ([]T, error) {
	return s.core.QuantilesInto(dst, phis)
}

// RankBatch returns the estimated inclusive rank of every probe in ys,
// written into dst (grown as needed) in probe order. The batch is answered
// with one galloping sweep over the sorted view — probes are visited in
// ascending order, so per-probe cost amortizes to O(1) comparisons for
// batches that are dense relative to the retained items. Prefer it over a
// Rank loop whenever the probes are already in a slice.
func (s *Sketch[T]) RankBatch(dst []uint64, ys []T) []uint64 {
	return s.core.RankBatch(dst, ys)
}

// NormalizedRankBatch is RankBatch normalized by Count(): every entry is
// Rank(y)/n in [0, 1] (0 on an empty sketch).
func (s *Sketch[T]) NormalizedRankBatch(dst []float64, ys []T) []float64 {
	return s.core.NormalizedRankBatch(dst, ys)
}

// CDF returns the estimated normalized ranks at each split point (which
// must be ascending and, for float64, hold no NaN); the result has one more
// entry than splits, the last being 1.
func (s *Sketch[T]) CDF(splits []T) ([]float64, error) { return s.core.CDF(splits) }

// CDFInto is CDF writing into dst (grown as needed) and returning it; the
// whole batch is one galloping sweep over the sorted view.
func (s *Sketch[T]) CDFInto(dst []float64, splits []T) ([]float64, error) {
	return s.core.CDFInto(dst, splits)
}

// PMF returns the estimated probability mass of each interval delimited by
// the ascending split points.
func (s *Sketch[T]) PMF(splits []T) ([]float64, error) { return s.core.PMF(splits) }

// PMFInto is PMF writing into dst (grown as needed) and returning it.
func (s *Sketch[T]) PMFInto(dst []float64, splits []T) ([]float64, error) {
	return s.core.PMFInto(dst, splits)
}

// ItemsRetained returns the number of items currently stored — the sketch's
// footprint, O(ε⁻¹·log^1.5(εn)·√log(1/δ)) by Theorem 1.
func (s *Sketch[T]) ItemsRetained() int { return s.core.ItemsRetained() }

// NumLevels returns the number of relative-compactors in the sketch.
func (s *Sketch[T]) NumLevels() int { return s.core.NumLevels() }

// K returns the current section size k of the compaction schedule.
func (s *Sketch[T]) K() int { return s.core.K() }

// All iterates the sketch's weighted coreset: every retained item in
// ascending order with the weight it carries. Weights sum to Count()
// exactly. This is the raw material for custom serialization of generic
// item types or for exporting the summary to other systems, and it
// allocates nothing — the iteration walks the sketch's cached sorted view
// in place (building it on first use).
//
// The sketch must not be mutated while the iteration is in progress: the
// view being walked is owned by the sketch and recycled on the next write.
// To iterate a coreset that outlives writes, take a Snapshot and range over
// its All instead.
func (s *Sketch[T]) All() iter.Seq2[T, uint64] {
	return func(yield func(item T, weight uint64) bool) {
		v := s.core.SortedView()
		for i, x := range v.Items() {
			if !yield(x, v.Weight(i)) {
				return
			}
		}
	}
}

// Snapshot captures the sketch's current state as an immutable,
// concurrency-safe Snapshot: a deep copy of the sorted view (the coreset's
// sorted items and cumulative weights), answering every query as the live
// sketch would at capture time, forever — except that a quantile answer
// may be the other of two items equal under the order, such as −0 for +0
// (see QuantilesInto). It is the one way to get a frozen reader of a
// sketch. It costs one O(retained) copy, plus a view rebuild when the
// sketch was written since the view was last built; the view stays cached
// until the next write, so Snapshot, All and the batch queries between
// writes share one build. Contrast with Clone, which copies the full
// mutable state (levels, RNG) so the copy can keep ingesting.
func (s *Sketch[T]) Snapshot() *Snapshot[T] {
	return &Snapshot[T]{v: s.core.FreezeOwned(), cfg: s.core.Config()}
}

// Clone returns a deep copy of the sketch sharing no mutable state with s.
// The clone continues the original's random stream, so clone and original
// behave identically on identical subsequent input. When readers only
// need to query, take a Snapshot instead: it copies the coreset alone.
func (s *Sketch[T]) Clone() *Sketch[T] {
	return &Sketch[T]{core: s.core.Clone()}
}

// Reset empties the sketch in place, keeping its configuration (and
// continuing its random stream). Useful for pooling sketches across
// aggregation windows.
func (s *Sketch[T]) Reset() { s.core.Reset() }

// String returns a short human-readable summary.
func (s *Sketch[T]) String() string {
	return fmt.Sprintf("req.Sketch{n=%d, retained=%d, levels=%d, k=%d}",
		s.Count(), s.ItemsRetained(), s.NumLevels(), s.K())
}

// DebugString renders the internal level structure (buffer occupancies,
// schedule states), in the layout of the paper's Figures 1 and 2.
func (s *Sketch[T]) DebugString() string { return s.core.DebugString() }

// Errors re-exported from the engine.
var (
	// ErrEmpty is returned by quantile queries on an empty sketch.
	ErrEmpty = core.ErrEmpty
	// ErrBadRank is returned for normalized ranks outside [0, 1].
	ErrBadRank = core.ErrBadRank
)

// buildSettings folds opts over the default settings.
func buildSettings(opts []Option) (settings, error) {
	var st settings
	for _, opt := range opts {
		if opt == nil {
			return st, errors.New("req: nil option")
		}
		if err := opt(&st); err != nil {
			return st, err
		}
	}
	return st, nil
}
