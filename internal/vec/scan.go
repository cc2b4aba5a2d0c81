package vec

// Linear scans over unsorted data. Counting independent per-element
// predicates is permutation-invariant, so these are 4x-unrolled with
// independent accumulators and branch-free bodies (b2i compiles to SETcc).

// CountLE counts elements x with !(y < x), the inclusive-rank predicate
// of the generic tail scan in levelCountLE. Note !(y < x) is not x ≤ y under
// NaN: a NaN element compares false on both sides and therefore counts,
// exactly as the generic closure form does.
//
//req:noalloc
func CountLE[E Elem](xs []E, y E) int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		c0 += b2i(!(y < xs[i]))
		c1 += b2i(!(y < xs[i+1]))
		c2 += b2i(!(y < xs[i+2]))
		c3 += b2i(!(y < xs[i+3]))
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(xs); i++ {
		c += b2i(!(y < xs[i]))
	}
	return c
}

// CountLT counts elements x with x < y (the exclusive-rank predicate; a
// NaN element never counts, matching the generic closure form).
//
//req:noalloc
func CountLT[E Elem](xs []E, y E) int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		c0 += b2i(xs[i] < y)
		c1 += b2i(xs[i+1] < y)
		c2 += b2i(xs[i+2] < y)
		c3 += b2i(xs[i+3] < y)
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(xs); i++ {
		c += b2i(xs[i] < y)
	}
	return c
}

// HasNaN reports whether xs contains a NaN, via the self-comparison
// identity (x != x only for NaN). Unrolled four to a block with one early
// exit per block, so the common all-clean case scans without a branch per
// element.
//
//req:noalloc
func HasNaN(xs []float64) bool {
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		if xs[i] != xs[i] || xs[i+1] != xs[i+1] ||
			xs[i+2] != xs[i+2] || xs[i+3] != xs[i+3] {
			return true
		}
	}
	for ; i < len(xs); i++ {
		if xs[i] != xs[i] {
			return true
		}
	}
	return false
}

// MinMax folds xs into the running (mn, mx) pair with exactly the generic
// batch-ingest scan: `if x < mn {mn = x} else if mx < x {mx = x}`. It is
// deliberately sequential — no unrolling, no vector variant — because
// float64 ±0 ties resolve to the first-seen operand and reordering lanes
// would change which zero survives, breaking bit-identity.
//
//req:noalloc
func MinMax[E Elem](xs []E, mn, mx E) (E, E) {
	for _, x := range xs {
		if x < mn {
			mn = x
		} else if mx < x {
			mx = x
		}
	}
	return mn, mx
}

// ExtendRunAsc returns the sorted-prefix length of xs extended item by item
// from sorted, under the ascending order: the prefix grows while the next
// element is not below its predecessor (the batch-ingest prefix-extension
// loop with internalLess = `<`).
//
//req:noalloc
func ExtendRunAsc[E Elem](xs []E, sorted int) int {
	for sorted < len(xs) && (sorted == 0 || !(xs[sorted] < xs[sorted-1])) {
		sorted++
	}
	return sorted
}

// ExtendRunDesc is ExtendRunAsc under the descending internal order of HRA
// sketches (internalLess(a, b) = b < a).
//
//req:noalloc
func ExtendRunDesc[E Elem](xs []E, sorted int) int {
	for sorted < len(xs) && (sorted == 0 || !(xs[sorted-1] < xs[sorted])) {
		sorted++
	}
	return sorted
}

// IsSortedAsc reports whether xs is non-decreasing.
//
//req:noalloc
func IsSortedAsc[E Elem](xs []E) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// IsSortedDesc reports whether xs is non-increasing.
//
//req:noalloc
func IsSortedDesc[E Elem](xs []E) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] < xs[i] {
			return false
		}
	}
	return true
}
