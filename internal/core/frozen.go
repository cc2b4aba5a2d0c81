package core

import (
	"errors"
	"fmt"
)

// Frozen views. A View is a coreset frozen into two parallel arrays — the
// sorted items and their cumulative weights — plus O(1) scalars.
// Sketch.MergeInto fills a View its caller owns, and FrozenFromParts
// rebuilds a View around arrays mapped or decoded from storage. Every View
// method is a pure read, so any number of goroutines may query such a View
// at once with no synchronization; the root package serves it as
// req.Snapshot. Persisting one is two contiguous array writes (Items,
// CumulativeWeights), and opening one can be two slice aliases over a
// read-only mapping — no per-item decode.
//
// Ownership rule (the package's aliasing discipline): FrozenFromParts
// aliases the arrays without copying, so they must be provably frozen — a
// read-only file mapping, or buffers no writer will ever touch again. A
// View never writes through them.

// FrozenFromParts returns the View over items and cum — the sorted items
// and their cumulative weights, of equal length, rising to n — WITHOUT
// copying or decoding them. Validation is O(1): length consistency,
// weight/count coherence, min/max present exactly when n > 0, admitted by
// tab's item rule and bracketing the items. That keeps opening a persisted
// snapshot free of per-item work. Untrusted arrays need VerifyStructure's
// per-item checks too, or a decoder that makes them as it writes them.
func FrozenFromParts[T any](tab Table[T], n uint64, min, max T, hasMinMax bool, items []T, cum []uint64) (View[T], error) {
	if tab.k == nil {
		return View[T]{}, errors.New("core: nil kernel table")
	}
	ni := len(items)
	if len(cum) != ni {
		return View[T]{}, fmt.Errorf("core: %d items but %d cumulative weights", ni, len(cum))
	}
	if n == 0 {
		if ni != 0 {
			return View[T]{}, errors.New("core: empty coreset carries items")
		}
		if hasMinMax {
			return View[T]{}, errors.New("core: empty coreset carries min/max")
		}
	} else {
		if ni == 0 {
			return View[T]{}, errors.New("core: nonempty coreset has no items")
		}
		if !hasMinMax {
			return View[T]{}, errors.New("core: nonempty coreset lacks min/max")
		}
		// Weight conservation and bracketing, all O(1): the last cumulative
		// weight is the whole stream, and min/max bound the retained items.
		if cum[ni-1] != n {
			return View[T]{}, fmt.Errorf("core: retained weight %d != n %d", cum[ni-1], n)
		}
		if err := tab.checkBounds(items, min, max); err != nil {
			return View[T]{}, err
		}
	}
	return View[T]{items: items[:ni:ni], cum: cum[:ni:ni], kern: tab.k, n: n, min: min, max: max}, nil
}

// VerifyStructure deep-checks a View's arrays: every item admitted by its
// order's item rule (no NaN under the float64 order), the items ascending,
// and the cumulative weights rising strictly to n. The items take two bulk
// scans of the kernel table (admitsAll, isSortedAsc), the weights one
// loop; the walk is read-only and allocation-free. Any violation is
// reported as an error, never a panic, so untrusted checksum-valid files
// cannot plant a snapshot that answers queries from inconsistent arrays.
func (v *View[T]) VerifyStructure() error {
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
