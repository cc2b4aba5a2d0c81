package core

// Generic in-place sorting and searching over a caller-supplied strict weak
// order. The standard library's sort.Slice routes comparisons and swaps
// through reflection, which dominates compaction cost for small element
// types; slices.SortFunc wants a three-way comparator, which would force two
// less-calls per comparison. The sketch only needs an unstable sort, so this
// file implements a plain quicksort (median-of-three pivot, insertion sort
// for short runs, tail-call elimination on the larger half) specialised to a
// less function.

const insertionThreshold = 12

// sortSlice sorts xs in place under less.
func sortSlice[T any](xs []T, less func(a, b T) bool) {
	quicksort(xs, less, maxDepth(len(xs)))
}

// maxDepth returns 2·⌊log₂(n)⌋, the recursion budget before switching to
// heapsort, mirroring the standard introsort safeguard.
func maxDepth(n int) int {
	d := 0
	for i := n; i > 0; i >>= 1 {
		d++
	}
	return 2 * d
}

func quicksort[T any](xs []T, less func(a, b T) bool, depth int) {
	for len(xs) > insertionThreshold {
		if depth == 0 {
			heapsort(xs, less)
			return
		}
		depth--
		p := partition(xs, less)
		// Recurse on the smaller half, loop on the larger: O(log n) stack.
		if p < len(xs)-p-1 {
			quicksort(xs[:p], less, depth)
			xs = xs[p+1:]
		} else {
			quicksort(xs[p+1:], less, depth)
			xs = xs[:p]
		}
	}
	insertionSort(xs, less)
}

// partition performs a Hoare-style partition with a median-of-three pivot
// moved to xs[len-1]; it returns the pivot's final index.
func partition[T any](xs []T, less func(a, b T) bool) int {
	n := len(xs)
	mid := n / 2
	// Order xs[0], xs[mid], xs[n-1] so xs[mid] is the median.
	if less(xs[mid], xs[0]) {
		xs[mid], xs[0] = xs[0], xs[mid]
	}
	if less(xs[n-1], xs[0]) {
		xs[n-1], xs[0] = xs[0], xs[n-1]
	}
	if less(xs[n-1], xs[mid]) {
		xs[n-1], xs[mid] = xs[mid], xs[n-1]
	}
	// Pivot to position n-2 (xs[n-1] already ≥ pivot).
	xs[mid], xs[n-2] = xs[n-2], xs[mid]
	pivot := xs[n-2]
	i, j := 0, n-2
	for {
		i++
		for less(xs[i], pivot) {
			i++
		}
		j--
		for less(pivot, xs[j]) {
			j--
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
	xs[i], xs[n-2] = xs[n-2], xs[i]
	return i
}

func insertionSort[T any](xs []T, less func(a, b T) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func heapsort[T any](xs []T, less func(a, b T) bool) {
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(xs, i, n, less)
	}
	for i := n - 1; i > 0; i-- {
		xs[0], xs[i] = xs[i], xs[0]
		siftDown(xs, 0, i, less)
	}
}

func siftDown[T any](xs []T, root, end int, less func(a, b T) bool) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && less(xs[child], xs[child+1]) {
			child++
		}
		if !less(xs[root], xs[child]) {
			return
		}
		xs[root], xs[child] = xs[child], xs[root]
		root = child
	}
}

// isSorted reports whether xs is non-decreasing under less.
//
//req:noalloc
func isSorted[T any](xs []T, less func(a, b T) bool) bool {
	for i := 1; i < len(xs); i++ {
		if less(xs[i], xs[i-1]) {
			return false
		}
	}
	return true
}

// searchLE returns the number of elements in sorted xs that are ≤ y, i.e.,
// the index of the first element strictly greater than y.
//
//req:noalloc
func searchLE[T any](xs []T, y T, less func(a, b T) bool) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(y, xs[mid]) { // xs[mid] > y
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchLT returns the number of elements in sorted xs strictly less than y.
//
//req:noalloc
func searchLT[T any](xs []T, y T, less func(a, b T) bool) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(xs[mid], y) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
