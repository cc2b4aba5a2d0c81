package core

// Sorted-run merge primitives backing the sorted-compactor invariant (after
// Ivkin et al., "Streaming Quantiles Algorithms with Small Space and Update
// Time", 2019): every compactor keeps its buffer as a sorted prefix plus an
// unsorted append tail. Compaction never re-sorts a whole buffer — it sorts
// only the tail, merges it behind the prefix, and merges promoted emissions
// into the (sorted) buffer one level up. All merges run backward over spare
// capacity; long runs are located by galloping (exponential then binary
// search) and moved with a single copy.

// mergeSortedInto merges the sorted block add into the sorted slice dst
// (both ascending under less) and returns the extended slice. After dst is
// extended by len(add) the merge is performed backward in place, so no
// scratch beyond dst's spare capacity is needed; add is only read and must
// not alias dst's backing array. When dst is a level buffer, the caller has
// grown it for add (slices.Grow), so the append never reallocates and the
// merge runs entirely inside the buffer's spare capacity.
func mergeSortedInto[T any](dst []T, add []T, less func(a, b T) bool) []T {
	m, e := len(dst), len(add)
	if e == 0 {
		return dst
	}
	dst = append(dst, add...)
	if m == 0 || !less(add[0], dst[m-1]) {
		// add belongs entirely after dst (the common case for near-sorted
		// ingest); append already placed it.
		return dst
	}
	i, j, k := m-1, e-1, m+e-1
	for j >= 0 && i >= 0 {
		if less(add[j], dst[i]) {
			// Gallop backward for p, the first index in dst[:i+1] with
			// dst[p] > add[j], then move dst[p:i+1] down in one copy.
			lo, hi := 0, i
			for step := 1; hi-step >= 0; step <<= 1 {
				if !less(add[j], dst[hi-step]) {
					lo = hi - step + 1
					break
				}
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if less(add[j], dst[mid]) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			cnt := i - lo + 1
			copy(dst[k-cnt+1:k+1], dst[lo:i+1])
			k -= cnt
			i = lo - 1
		} else {
			dst[k] = add[j]
			j--
			k--
		}
	}
	if j >= 0 {
		copy(dst[:j+1], add[:j+1])
	}
	return dst
}

// settleLevel restores the fully-sorted state of level h: the unsorted
// append tail is sorted on its own and merged behind the sorted prefix in
// one backward galloping pass through the scratch of s's Work, which no
// level aliases. No-op when the buffer is already fully sorted. Callers
// that need the scratch afterwards must settle first; settleLevel
// overwrites it.
func (s *Sketch[T]) settleLevel(h int) {
	c := &s.levels[h]
	if c.sorted == len(c.buf) {
		return
	}
	unsorted := c.buf[c.sorted:]
	s.sortInternal(unsorted)
	if c.sorted == 0 {
		c.sorted = len(c.buf)
		return
	}
	w := s.workspace()
	w.scratch = append(w.scratch[:0], unsorted...)
	c.buf = s.mergeInternalInto(c.buf[:c.sorted], w.scratch)
	c.sorted = len(c.buf)
}

// countLEDesc returns the number of elements ≤ y in xs, which must be
// sorted descending under less (the storage order of HRA sketches).
//
//req:noalloc
func countLEDesc[T any](xs []T, y T, less func(a, b T) bool) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(y, xs[mid]) { // xs[mid] > y: boundary is right of mid
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return len(xs) - lo
}

// countLTDesc returns the number of elements strictly less than y in xs,
// which must be sorted descending under less.
//
//req:noalloc
func countLTDesc[T any](xs []T, y T, less func(a, b T) bool) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !less(xs[mid], y) { // xs[mid] ≥ y: boundary is right of mid
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return len(xs) - lo
}

// gallopLE returns the index of the first element > y in sorted xs, starting
// the search at from (every element before from must already be ≤ y — the
// batch-query sweeps guarantee it by visiting probes in ascending order).
// Exponential probing followed by a binary search keeps the cost
// O(log(gap)) in the distance advanced, so a whole ascending sweep is O(n)
// worst case and O(m·log(n/m)) for m spread-out probes.
//
//req:noalloc
func gallopLE[T any](xs []T, from int, y T, less func(a, b T) bool) int {
	n := len(xs)
	if from >= n || less(y, xs[from]) {
		return from
	}
	lo, hi := from, n // xs[lo] ≤ y; hi is first candidate known > y (or n)
	for step := 1; lo+step < n; step <<= 1 {
		if less(y, xs[lo+step]) {
			hi = lo + step
			break
		}
		lo += step
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(y, xs[mid]) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// extendRun returns the length of xs's sorted (non-decreasing under less)
// prefix, extended item by item from sorted: xs[:sorted] must already be
// sorted, and extendRun(xs, 0, less) is the longest sorted prefix.
//
//req:noalloc
func extendRun[T any](xs []T, sorted int, less func(a, b T) bool) int {
	for sorted < len(xs) && (sorted == 0 || !less(xs[sorted], xs[sorted-1])) {
		sorted++
	}
	return sorted
}
