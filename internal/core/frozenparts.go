package core

import (
	"errors"
	"fmt"
)

// Frozen storage export/import for the snapshot persistence layer.
//
// A Frozen is five parallel arrays (view items + cumulative weights, and
// the Eytzinger index's items/cum/before) plus O(1) scalars. Persisting a
// snapshot is therefore five contiguous array writes, and opening one can
// be five slice aliases over a read-only mapping — no per-item decode. The
// functions here expose exactly that boundary: Parts hands the arrays out
// for writing, FrozenFromParts rebuilds a Frozen around externally owned
// arrays with O(1) structural validation, and VerifyStructure is the O(n)
// deep check callers run when the arrays come from an untrusted file.
//
// Ownership rule (the PR 4/5 aliasing discipline): FrozenFromParts aliases
// the given arrays without copying, so they must be provably frozen — a
// read-only file mapping, or buffers no writer will ever touch again. The
// Frozen never writes through them.

// FrozenParts is the raw storage layout of a Frozen: the sorted view and
// its rank index as five parallel arrays. For a non-empty coreset of ni
// entries, Items/Cum have length ni and the three index arrays have length
// ni+1 (slot 0 of the 1-based Eytzinger layout is unused); all five are
// empty when the coreset is empty. IdxTotal is the total retained weight
// (== Cum[ni-1] == the stream length n).
type FrozenParts[T any] struct {
	Items     []T
	Cum       []uint64
	IdxItems  []T
	IdxCum    []uint64
	IdxBefore []uint64
	IdxTotal  uint64
}

// Parts returns the frozen coreset's storage arrays. The slices alias the
// Frozen's (immutable) storage: read-only, valid as long as the Frozen.
func (f *Frozen[T]) Parts() FrozenParts[T] {
	if !f.v.idx.built {
		// Only an empty Frozen carries no index (FreezeOwned and
		// FrozenFromCoreset build it for any non-empty coreset).
		return FrozenParts[T]{}
	}
	ni := len(f.v.items)
	return FrozenParts[T]{
		Items:     f.v.items,
		Cum:       f.v.cum,
		IdxItems:  f.v.idx.items[: ni+1 : ni+1],
		IdxCum:    f.v.idx.cum[: ni+1 : ni+1],
		IdxBefore: f.v.idx.before[: ni+1 : ni+1],
		IdxTotal:  f.v.idx.total,
	}
}

// FrozenFromParts reconstructs a Frozen directly around the given storage
// arrays WITHOUT copying or decoding: the arrays are aliased as-is, so the
// caller must guarantee they are never written again (read-only mapping
// rule). Validation here is O(1) — length consistency, weight/count
// coherence, min/max bracketing — which is what keeps opening a persisted
// snapshot free of per-item work; run VerifyStructure afterwards when the
// arrays come from an untrusted source and integrity checksums are not
// trusted to have covered them.
func FrozenFromParts[T any](less func(a, b T) bool, cfg Config, n uint64, min, max T, hasMinMax bool, p FrozenParts[T]) (*Frozen[T], error) {
	if less == nil {
		return nil, errors.New("core: nil less function")
	}
	if err := cfg.Normalize(); err != nil {
		return nil, fmt.Errorf("core: parts config: %w", err)
	}
	ni := len(p.Items)
	if len(p.Cum) != ni {
		return nil, fmt.Errorf("core: %d items but %d cumulative weights", ni, len(p.Cum))
	}
	if n == 0 {
		if ni != 0 || p.IdxTotal != 0 {
			return nil, errors.New("core: empty coreset carries items")
		}
		if hasMinMax {
			return nil, errors.New("core: empty coreset carries min/max")
		}
		return &Frozen[T]{v: View[T]{kern: kernelFor(less)}, cfg: cfg}, nil
	}
	if ni == 0 {
		return nil, errors.New("core: nonempty coreset has no items")
	}
	if !hasMinMax {
		return nil, errors.New("core: nonempty coreset lacks min/max")
	}
	if len(p.IdxItems) != ni+1 || len(p.IdxCum) != ni+1 || len(p.IdxBefore) != ni+1 {
		return nil, fmt.Errorf("core: index arrays sized %d/%d/%d for %d items",
			len(p.IdxItems), len(p.IdxCum), len(p.IdxBefore), ni)
	}
	// Weight conservation and bracketing, all O(1): the last cumulative
	// weight is the whole stream, and min/max bound the retained items.
	if p.Cum[ni-1] != n || p.IdxTotal != n {
		return nil, fmt.Errorf("core: retained weight %d (index %d) != n %d", p.Cum[ni-1], p.IdxTotal, n)
	}
	if less(p.Items[0], min) || less(max, p.Items[ni-1]) {
		return nil, errors.New("core: coreset items outside [min, max]")
	}
	if less(max, min) {
		return nil, errors.New("core: min/max inverted")
	}
	f := &Frozen[T]{cfg: cfg, hasMinMax: true}
	f.v = View[T]{
		items: p.Items[:ni:ni],
		cum:   p.Cum[:ni:ni],
		kern:  kernelFor(less),
		n:     n,
		min:   min,
		max:   max,
		idx: eytIndex[T]{
			items:  p.IdxItems,
			cum:    p.IdxCum,
			before: p.IdxBefore,
			total:  p.IdxTotal,
			built:  true,
		},
	}
	return f, nil
}

// VerifyStructure deep-checks a Frozen built by FrozenFromParts: items
// sorted ascending, cumulative weights strictly increasing to n, and the
// Eytzinger index an exact mirror of the sorted view (every slot holds the
// in-order item with its cum/before weights). validate, when non-nil, is
// applied to every item (the root package rejects NaN floats with it). The
// walk is read-only and allocation-free; any violation is reported as an
// error, never a panic, so untrusted checksum-valid files cannot plant a
// snapshot that answers queries from inconsistent arrays.
func (f *Frozen[T]) VerifyStructure(validate func(T) error) error {
	v := &f.v
	ni := len(v.items)
	if ni == 0 {
		return nil
	}
	var prev uint64
	for i := 0; i < ni; i++ {
		if validate != nil {
			if err := validate(v.items[i]); err != nil {
				return fmt.Errorf("core: item %d: %w", i, err)
			}
		}
		if i > 0 && v.kern.less(v.items[i], v.items[i-1]) {
			return fmt.Errorf("core: items unsorted at %d", i)
		}
		if v.cum[i] <= prev {
			return fmt.Errorf("core: cumulative weight not increasing at %d", i)
		}
		prev = v.cum[i]
	}
	if prev != v.n {
		return fmt.Errorf("core: retained weight %d != n %d", prev, v.n)
	}
	if !v.idx.built {
		return errors.New("core: nonempty frozen lacks rank index")
	}
	if validate != nil {
		// Slot 0 of the 1-based layout is unused but mapped; a NaN planted
		// there is harmless to queries, yet rejecting it keeps "checksum-valid
		// implies every mapped item is valid" simple and true.
		if err := validate(v.idx.items[0]); err != nil {
			return fmt.Errorf("core: index slot 0: %w", err)
		}
	}
	if pos, err := f.verifyIndexSubtree(1, 0); err != nil {
		return err
	} else if pos != ni {
		return fmt.Errorf("core: index covers %d of %d items", pos, ni)
	}
	return nil
}

// verifyIndexSubtree checks that the subtree rooted at Eytzinger slot k
// mirrors v.items[next:] in-order, returning the advanced position. It is
// the read-only twin of View.fillIndex; recursion depth is ⌈log₂ n⌉.
func (f *Frozen[T]) verifyIndexSubtree(k, next int) (int, error) {
	v := &f.v
	if k > len(v.items) {
		return next, nil
	}
	next, err := f.verifyIndexSubtree(2*k, next)
	if err != nil {
		return next, err
	}
	if a, b := v.idx.items[k], v.items[next]; v.kern.less(a, b) || v.kern.less(b, a) {
		return next, fmt.Errorf("core: index slot %d does not mirror item %d", k, next)
	}
	if v.idx.cum[k] != v.cum[next] {
		return next, fmt.Errorf("core: index cum at slot %d != view cum at %d", k, next)
	}
	wantBefore := uint64(0)
	if next > 0 {
		wantBefore = v.cum[next-1]
	}
	if v.idx.before[k] != wantBefore {
		return next, fmt.Errorf("core: index before-weight at slot %d != view at %d", k, next)
	}
	return f.verifyIndexSubtree(2*k+1, next+1)
}
