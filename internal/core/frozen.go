package core

import (
	"errors"
	"fmt"
	"slices"
)

// Frozen is an immutable, concurrency-safe snapshot of a sketch's weighted
// coreset: the sorted view's items and cumulative weights, owning (or, for
// FreezeShared, exclusively aliasing) its storage. Unlike the *View returned
// by SortedView — which the sketch recycles on the next write — a Frozen
// stays valid forever, so it is the type the root package hands to external
// callers as req.Snapshot.
//
// Every method is a pure read: any number of goroutines may query one
// Frozen concurrently, with no synchronization, while the source sketch
// keeps writing.
type Frozen[T any] struct {
	v         View[T]
	cfg       Config
	hasMinMax bool
}

// FreezeOwned captures the sketch's current coreset as a Frozen that owns
// every byte of its storage: the sorted view's two arrays are deep copied,
// so the result shares no mutable state with the sketch and remains valid
// (and concurrency-safe) across any subsequent writes. It freezes the
// sketch as a side effect (view materialized), costing O(retained) time
// and space: two allocations and two memcpys no matter how large the
// coreset.
func (s *Sketch[T]) FreezeOwned() *Frozen[T] {
	v := *s.SortedView()
	v.items, v.cum = slices.Clone(v.items), slices.Clone(v.cum)
	return &Frozen[T]{v: v, cfg: s.cfg, hasMinMax: s.hasMinMax}
}

// FreezeShared wraps the sketch's frozen view as a Frozen WITHOUT copying:
// the result aliases the sketch's view storage. It is sound only when the
// sketch is never mutated again — the sharded wrapper uses it to publish
// each epoch's freshly merged (and from then on immutable) sketch without
// paying a second copy of the coreset. For a live sketch use FreezeOwned
// instead.
func (s *Sketch[T]) FreezeShared() *Frozen[T] {
	src := s.SortedView()
	return &Frozen[T]{v: *src, cfg: s.cfg, hasMinMax: s.hasMinMax}
}

// FrozenFromCoreset reconstructs a Frozen from a serialized coreset: items
// ascending in less order with per-item weights summing to n. It validates
// structural consistency (ordering, positive weights, weight conservation,
// min/max bracketing) so that untrusted input cannot produce a snapshot
// whose queries misbehave; the items and weights slices are taken over by
// the Frozen (weights is rewritten in place into cumulative form).
func FrozenFromCoreset[T any](less func(a, b T) bool, cfg Config, n uint64, min, max T, hasMinMax bool, items []T, weights []uint64) (*Frozen[T], error) {
	if less == nil {
		return nil, errors.New("core: nil less function")
	}
	if err := cfg.Normalize(); err != nil {
		return nil, fmt.Errorf("core: coreset config: %w", err)
	}
	if len(items) != len(weights) {
		return nil, fmt.Errorf("core: %d items but %d weights", len(items), len(weights))
	}
	if n == 0 {
		if len(items) != 0 {
			return nil, errors.New("core: empty coreset carries items")
		}
		if hasMinMax {
			return nil, errors.New("core: empty coreset carries min/max")
		}
	} else {
		if len(items) == 0 {
			return nil, errors.New("core: nonempty coreset has no items")
		}
		if !hasMinMax {
			return nil, errors.New("core: nonempty coreset lacks min/max")
		}
		if less(items[0], min) || less(max, items[len(items)-1]) {
			return nil, errors.New("core: coreset items outside [min, max]")
		}
	}
	var run uint64
	for i, w := range weights {
		if w == 0 {
			return nil, fmt.Errorf("core: coreset weight %d is zero", i)
		}
		if run+w < run {
			return nil, errors.New("core: coreset weight overflow")
		}
		run += w
		weights[i] = run
		if i > 0 && less(items[i], items[i-1]) {
			return nil, fmt.Errorf("core: coreset items unsorted at %d", i)
		}
	}
	if run != n {
		return nil, fmt.Errorf("core: coreset weight %d != n %d", run, n)
	}
	f := &Frozen[T]{cfg: cfg, hasMinMax: hasMinMax}
	f.v = View[T]{items: items, cum: weights, kern: kernelFor(less), n: n, min: min, max: max}
	return f, nil
}

// Count returns the total weight summarised (the stream length).
//
//req:noalloc
func (f *Frozen[T]) Count() uint64 { return f.v.n }

// Empty reports whether the snapshot summarises no items.
//
//req:noalloc
func (f *Frozen[T]) Empty() bool { return f.v.n == 0 }

// Min returns the smallest item seen. ok is false when empty.
//
//req:noalloc
func (f *Frozen[T]) Min() (item T, ok bool) { return f.v.min, f.hasMinMax }

// Max returns the largest item seen. ok is false when empty.
//
//req:noalloc
func (f *Frozen[T]) Max() (item T, ok bool) { return f.v.max, f.hasMinMax }

// Config returns the configuration of the source sketch.
func (f *Frozen[T]) Config() Config { return f.cfg }

// Size returns the number of retained coreset entries.
//
//req:noalloc
func (f *Frozen[T]) Size() int { return len(f.v.items) }

// ItemsRetained returns the number of retained coreset entries (alias of
// Size, mirroring the sketch method).
//
//req:noalloc
func (f *Frozen[T]) ItemsRetained() int { return len(f.v.items) }

// Items returns the retained items ascending. Shared storage: read-only.
func (f *Frozen[T]) Items() []T { return f.v.items }

// Weight returns the weight carried by Items()[i].
//
//req:noalloc
func (f *Frozen[T]) Weight(i int) uint64 { return f.v.Weight(i) }

// Rank returns the estimated inclusive rank of y.
//
//req:noalloc
func (f *Frozen[T]) Rank(y T) uint64 { return f.v.Rank(y) }

// RankExclusive returns the estimated exclusive rank of y.
//
//req:noalloc
func (f *Frozen[T]) RankExclusive(y T) uint64 { return f.v.RankExclusive(y) }

// NormalizedRank returns Rank(y)/Count() in [0, 1] (0 when empty).
//
//req:noalloc
func (f *Frozen[T]) NormalizedRank(y T) float64 {
	if f.v.n == 0 {
		return 0
	}
	return float64(f.v.Rank(y)) / float64(f.v.n)
}

// RankBatch answers Rank for every probe in ys, writing into dst (grown as
// needed) in probe order; see View.RankBatch.
func (f *Frozen[T]) RankBatch(dst []uint64, ys []T) []uint64 { return f.v.RankBatch(dst, ys) }

// NormalizedRankBatch is RankBatch normalized by Count().
func (f *Frozen[T]) NormalizedRankBatch(dst []float64, ys []T) []float64 {
	return f.v.NormalizedRankBatch(dst, ys)
}

// Quantile returns the item at normalized rank phi; see View.Quantile.
func (f *Frozen[T]) Quantile(phi float64) (T, error) { return f.v.Quantile(phi) }

// Quantiles returns the items at each normalized rank (allocating wrapper
// over QuantilesInto).
func (f *Frozen[T]) Quantiles(phis []float64) ([]T, error) { return f.v.QuantilesInto(nil, phis) }

// QuantilesInto answers every normalized rank in phis, writing into dst.
func (f *Frozen[T]) QuantilesInto(dst []T, phis []float64) ([]T, error) {
	return f.v.QuantilesInto(dst, phis)
}

// CDF returns the estimated normalized ranks at each ascending split point
// (allocating wrapper over CDFInto).
func (f *Frozen[T]) CDF(splits []T) ([]float64, error) { return f.v.CDFInto(nil, splits) }

// CDFInto is CDF writing into dst (grown as needed).
func (f *Frozen[T]) CDFInto(dst []float64, splits []T) ([]float64, error) {
	return f.v.CDFInto(dst, splits)
}

// PMF returns the estimated probability mass of each interval delimited by
// the ascending split points (allocating wrapper over PMFInto).
func (f *Frozen[T]) PMF(splits []T) ([]float64, error) { return f.PMFInto(nil, splits) }

// PMFInto is PMF writing into dst (grown as needed).
func (f *Frozen[T]) PMFInto(dst []float64, splits []T) ([]float64, error) {
	return f.v.PMFInto(dst, splits)
}
