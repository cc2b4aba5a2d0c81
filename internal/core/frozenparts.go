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
// FrozenFromCoreset (frozen.go) runs both over a decoded coreset.
//
// Ownership rule (the package's aliasing discipline): FrozenFromParts and
// FrozenFromCoreset alias the given arrays without copying, so they must
// be provably frozen — a read-only file mapping, or buffers no writer
// will ever touch again. The Frozen never writes through them.

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
// coherence, min/max admitted by tab's item rule and bracketing the items
// — which is what keeps opening a persisted snapshot free of per-item
// work; run VerifyStructure afterwards when the arrays come from an
// untrusted source and integrity checksums are not trusted to have
// covered them.
func FrozenFromParts[T any](tab Table[T], cfg Config, n uint64, min, max T, hasMinMax bool, p FrozenParts[T]) (*Frozen[T], error) {
	f := new(Frozen[T])
	if err := f.fromParts(tab, cfg, n, min, max, hasMinMax, p); err != nil {
		return nil, err
	}
	return f, nil
}

// fromParts fills f around p after FrozenFromParts' O(1) checks, leaving
// f untouched on error.
func (f *Frozen[T]) fromParts(tab Table[T], cfg Config, n uint64, min, max T, hasMinMax bool, p FrozenParts[T]) error {
	if tab.k == nil {
		return errors.New("core: nil kernel table")
	}
	if err := cfg.Normalize(); err != nil {
		return fmt.Errorf("core: coreset config: %w", err)
	}
	ni := len(p.Items)
	if len(p.Cum) != ni {
		return fmt.Errorf("core: %d items but %d cumulative weights", ni, len(p.Cum))
	}
	if n == 0 {
		if ni != 0 {
			return errors.New("core: empty coreset carries items")
		}
		if hasMinMax {
			return errors.New("core: empty coreset carries min/max")
		}
	} else {
		if ni == 0 {
			return errors.New("core: nonempty coreset has no items")
		}
		if !hasMinMax {
			return errors.New("core: nonempty coreset lacks min/max")
		}
		// Weight conservation and bracketing, all O(1): the last cumulative
		// weight is the whole stream, and min/max bound the retained items.
		if p.Cum[ni-1] != n {
			return fmt.Errorf("core: retained weight %d != n %d", p.Cum[ni-1], n)
		}
		if err := tab.checkBounds(p.Items, min, max); err != nil {
			return err
		}
	}
	*f = Frozen[T]{cfg: cfg, hasMinMax: hasMinMax}
	f.v = View[T]{
		items: p.Items[:ni:ni],
		cum:   p.Cum[:ni:ni],
		kern:  tab.k,
		n:     n,
		min:   min,
		max:   max,
	}
	return nil
}

// VerifyStructure deep-checks a Frozen's arrays: every item admitted by
// its order's item rule (no NaN under the float64 order), the items
// ascending, and the cumulative weights rising strictly to n. The items
// take two bulk scans of the kernel table (admitsAll, isSortedAsc), the
// weights one loop; the walk is read-only and allocation-free. Any
// violation is reported as an error, never a panic, so untrusted
// checksum-valid files cannot plant a snapshot that answers queries from
// inconsistent arrays.
func (f *Frozen[T]) VerifyStructure() error {
	v := &f.v
	if err := (Table[T]{v.kern}).checkItems(v.items); err != nil {
		return err
	}
	var prev uint64
	for i, c := range v.cum {
		if c <= prev {
			return fmt.Errorf("core: cumulative weight not increasing at %d", i)
		}
		prev = c
	}
	if prev != v.n {
		return fmt.Errorf("core: retained weight %d != n %d", prev, v.n)
	}
	return nil
}
