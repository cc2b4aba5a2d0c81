package core

import (
	"reflect"

	"req/internal/vec"
)

// Monomorphic kernel dispatch. The generic engine routes every comparison
// through the caller's less closure; for the two element types the public
// wrappers actually instantiate (float64, uint64) that indirect call per
// comparison is the dominant cost of the hot loops. When a sketch is
// constructed over the canonical natural-order function (LessF64/LessU64),
// it carries a kernelTable whose fields are internal/vec's monomorphic
// kernels — one indirect call per *operation* instead of per comparison,
// with the comparisons inlined (and the linear count scans AVX2-dispatched
// on capable amd64 hardware).
//
// Detection is deliberately conservative: only the canonical functions
// activate kernels, recognized by function-pointer identity. A caller
// passing its own `func(a, b float64) bool { return a < b }` gets correct
// behaviour through the generic paths — never a silently wrong kernel for
// an order that merely looks natural. The vec kernels are bit-identical
// transcriptions of the generic algorithms (see vec's package comment), so
// kernel and closure paths produce identical sketch states and answers.

// LessF64 is the canonical ascending order for float64 sketches. Construct
// float64 sketches with it (the root package's wrappers do) to activate the
// monomorphic kernel layer; any other function, even one with an identical
// body, keeps the generic closure paths.
func LessF64(a, b float64) bool { return a < b }

// LessU64 is the canonical ascending order for uint64 sketches; see LessF64.
func LessU64(a, b uint64) bool { return a < b }

var (
	lessF64Ptr = reflect.ValueOf(LessF64).Pointer()
	lessU64Ptr = reflect.ValueOf(LessU64).Pointer()
)

// kernelTable is the per-type dispatch surface: every field is a
// monomorphic kernel operating under the natural ascending order (Asc) or
// its reversal (Desc, the internal order of HRA sketches). A nil table on a
// sketch or view means "use the generic closures".
type kernelTable[T any] struct {
	sortAsc  func([]T)
	sortDesc func([]T)

	mergeAsc  func(dst, add []T) []T
	mergeDesc func(dst, add []T) []T

	searchLE    func([]T, T) int
	searchLT    func([]T, T) int
	countLEDesc func([]T, T) int
	countLTDesc func([]T, T) int

	// Linear scans over unsorted tails; AVX2-dispatched in vec on amd64.
	countLE func([]T, T) int
	countLT func([]T, T) int

	gallopLE     func(xs []T, from int, y T) int
	isSortedAsc  func([]T) bool
	isSortedDesc func([]T) bool
	minMax       func(xs []T, mn, mx T) (T, T)
	extendAsc    func(xs []T, sorted int) int
	extendDesc   func(xs []T, sorted int) int

	mergeTailCum func(items []T, cum []uint64, tail []T, old int)
	kway         func(curs []vec.KWayCursor[T], items []T, cum []uint64)

	eytRankLE    func([]T, T) int
	eytRankGE    func([]T, T) int
	eytRankBatch func(items []T, before []uint64, total uint64, ys []T, out []uint64)
}

// kernelFor returns the kernel table for T when less is the canonical
// natural-order function, nil otherwise. Detection is by function-pointer
// identity (func values are not comparable in Go; reflect.Pointer is the
// supported identity), so only LessF64/LessU64 themselves qualify.
func kernelFor[T any](less func(a, b T) bool) *kernelTable[T] {
	if less == nil {
		return nil
	}
	var zero T
	switch any(zero).(type) {
	case float64:
		if reflect.ValueOf(less).Pointer() == lessF64Ptr {
			return any(&kernelF64).(*kernelTable[T])
		}
	case uint64:
		if reflect.ValueOf(less).Pointer() == lessU64Ptr {
			return any(&kernelU64).(*kernelTable[T])
		}
	}
	return nil
}

// sortInternal sorts xs under the internal (compaction) order, through the
// kernel table when installed.
func (s *Sketch[T]) sortInternal(xs []T) {
	if k := s.kern; k != nil {
		if s.cfg.HRA {
			k.sortDesc(xs)
		} else {
			k.sortAsc(xs)
		}
		return
	}
	sortSlice(xs, s.internalLess)
}

// sortCaller sorts xs under the caller's order (always ascending for
// kernel-active sketches), through the kernel table when installed.
func (s *Sketch[T]) sortCaller(xs []T) {
	if k := s.kern; k != nil {
		k.sortAsc(xs)
		return
	}
	sortSlice(xs, s.less)
}

// searchCallerLE returns the number of elements ≤ y in xs, sorted
// ascending in the caller's order, through the kernel table when installed.
//
//req:noalloc
func (s *Sketch[T]) searchCallerLE(xs []T, y T) int {
	if k := s.kern; k != nil {
		return k.searchLE(xs, y)
	}
	return searchLE(xs, y, s.less)
}

// searchCallerLT returns the number of elements < y in xs; see
// searchCallerLE.
//
//req:noalloc
func (s *Sketch[T]) searchCallerLT(xs []T, y T) int {
	if k := s.kern; k != nil {
		return k.searchLT(xs, y)
	}
	return searchLT(xs, y, s.less)
}

// mergeInternalInto merges the sorted block add into the sorted slice dst
// under the internal order (mergeSortedInto's contract: capacity ensured by
// the caller, add must not alias dst), through the kernel table when
// installed.
func (s *Sketch[T]) mergeInternalInto(dst, add []T) []T {
	if k := s.kern; k != nil {
		if s.cfg.HRA {
			return k.mergeDesc(dst, add)
		}
		return k.mergeAsc(dst, add)
	}
	return mergeSortedInto(dst, add, s.internalLess)
}
