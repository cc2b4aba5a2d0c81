package core

import (
	"errors"
	"fmt"
)

// Frozen storage export/import for the snapshot persistence layer.
//
// A Frozen is two parallel arrays (the sorted items and their cumulative
// weights) plus O(1) scalars. Persisting a snapshot is therefore two
// contiguous array writes, and opening one can be two slice aliases over a
// read-only mapping — no per-item decode. The functions here expose
// exactly that boundary: Parts hands the arrays out for writing,
// FrozenFromParts rebuilds a Frozen around externally owned arrays with
// O(1) structural validation, and VerifyStructure is the O(n) deep check
// callers run when the arrays come from an untrusted file.
//
// Ownership rule (the package's aliasing discipline): FrozenFromParts
// aliases the given arrays without copying, so they must be provably
// frozen — a read-only file mapping, or buffers no writer will ever touch
// again. The Frozen never writes through them.

// FrozenParts is the raw storage layout of a Frozen: the sorted items and
// their cumulative weights, of equal length (both empty when the coreset
// is empty). The last cumulative weight is the stream length n.
type FrozenParts[T any] struct {
	Items []T
	Cum   []uint64
}

// Parts returns the frozen coreset's storage arrays. The slices alias the
// Frozen's (immutable) storage: read-only, valid as long as the Frozen.
func (f *Frozen[T]) Parts() FrozenParts[T] {
	return FrozenParts[T]{Items: f.v.items, Cum: f.v.cum}
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
		if ni != 0 {
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
	// Weight conservation and bracketing, all O(1): the last cumulative
	// weight is the whole stream, and min/max bound the retained items.
	if p.Cum[ni-1] != n {
		return nil, fmt.Errorf("core: retained weight %d != n %d", p.Cum[ni-1], n)
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
	}
	return f, nil
}

// VerifyStructure deep-checks a Frozen built by FrozenFromParts: items
// sorted ascending, and cumulative weights strictly increasing to n.
// validate, when non-nil, is applied to every item (the root package
// rejects NaN floats with it). The walk is read-only and allocation-free;
// any violation is reported as an error, never a panic, so untrusted
// checksum-valid files cannot plant a snapshot that answers queries from
// inconsistent arrays.
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
	return nil
}
