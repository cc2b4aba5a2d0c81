package core

import (
	"errors"
	"reflect"

	"req/internal/vec"
)

// Kernel dispatch: one table per order. Every hot loop of the engine —
// sorting, merging, searching, counting and the view's k-way merge — runs
// through the kernels table a Sketch or View carries. kernelFor chooses it
// once, where the order is fixed (Init, FromSnapshot, TableFor); copies
// carry it along, and FrozenFromParts and FrozenFromCoreset take the Table
// a decoder resolved once.
//
// For the canonical natural orders LessF64 and LessU64 the table is
// internal/vec's monomorphic kernels: one indirect call per *operation*
// instead of per comparison, with the comparisons inlined. Every other order
// gets orderKernels: the generic algorithms of sort.go and runmerge.go
// bound to the caller's less. The vec kernels are structure-identical
// transcriptions of those algorithms (see vec's package comment), so both
// kinds of table produce identical sketch states and answers on the items
// both admit.
//
// Detection is deliberately conservative: only the canonical functions
// select the vec tables, recognized by function-pointer identity. A caller
// passing its own `func(a, b float64) bool { return a < b }` gets the
// generic table — never a silently wrong kernel for an order that merely
// looks natural.
//
// The table also carries the order's item rule (admits): NaN has no place
// in LessF64's total order, so that table drops it, and every write entry
// point (Update, UpdateBatch, UpdateWeighted) applies the rule. Every other
// table admits every item.

// LessF64 is the canonical ascending order for float64 sketches. Construct
// float64 sketches with it (the root package's typed constructors do) to
// select the monomorphic kernel table; any other function, even one with
// an identical body, gets the generic table.
func LessF64(a, b float64) bool { return a < b }

// LessU64 is the canonical ascending order for uint64 sketches; see LessF64.
func LessU64(a, b uint64) bool { return a < b }

var (
	lessF64Ptr = reflect.ValueOf(LessF64).Pointer()
	lessU64Ptr = reflect.ValueOf(LessU64).Pointer()

	kernelsF64 kernels[float64] = f64Kernels{}
	kernelsU64 kernels[uint64]  = u64Kernels{}
)

// kernels is the per-order dispatch surface. less is the caller's order
// itself (no sketch or view keeps it apart from its table); every Asc
// method works under it and every Desc method under its reversal, the
// internal order of HRA sketches. The methods the //req:noalloc query paths
// call carry the directive, which binds every implementation.
type kernels[T any] interface {
	//req:noalloc
	less(a, b T) bool

	// admits reports whether x may enter a sketch under this order;
	// admitsAll reports it for every item of xs in one scan.
	admits(x T) bool
	admitsAll(xs []T) bool

	sortAsc([]T)
	sortDesc([]T)

	mergeAsc(dst, add []T) []T
	mergeDesc(dst, add []T) []T

	//req:noalloc
	searchLE([]T, T) int
	//req:noalloc
	searchLT([]T, T) int
	//req:noalloc
	countLEDesc([]T, T) int
	//req:noalloc
	countLTDesc([]T, T) int

	// Linear scans over unsorted tails.
	//
	//req:noalloc
	countLE([]T, T) int
	//req:noalloc
	countLT([]T, T) int

	gallopLE(xs []T, from int, y T) int
	isSortedAsc([]T) bool
	isSortedDesc([]T) bool
	minMax(xs []T, mn, mx T) (T, T)
	//req:noalloc
	extendAsc(xs []T, sorted int) int
	//req:noalloc
	extendDesc(xs []T, sorted int) int

	kway(curs []vec.KWayCursor[T], items []T, cum []uint64)
}

// kernelFor returns the kernel table for the order less: the vec table when
// less is the canonical natural-order function for T, the generic table
// bound to less otherwise. Detection is by function-pointer identity (func
// values are not comparable in Go; reflect.Pointer is the supported
// identity), so only LessF64/LessU64 themselves qualify.
func kernelFor[T any](less func(a, b T) bool) kernels[T] {
	var zero T
	switch any(zero).(type) {
	case float64:
		if reflect.ValueOf(less).Pointer() == lessF64Ptr {
			return *any(&kernelsF64).(*kernels[T])
		}
	case uint64:
		if reflect.ValueOf(less).Pointer() == lessU64Ptr {
			return *any(&kernelsU64).(*kernels[T])
		}
	}
	return orderKernels[T]{less}
}

// sameOrder reports whether two kernel tables sort under the same order:
// both the vec table of T, or both generic tables whose less functions
// share a code pointer, the identity kernelFor uses. A vec table never
// matches a generic one, even over a function with an identical body.
// Closures of one function literal share a code pointer whatever they
// capture, so they match.
func sameOrder[T any](a, b kernels[T]) bool {
	ga, genA := a.(orderKernels[T])
	gb, genB := b.(orderKernels[T])
	if !genA || !genB {
		return a == b // vec tables are comparable; mixed kinds differ in type
	}
	return reflect.ValueOf(ga.lt).Pointer() == reflect.ValueOf(gb.lt).Pointer()
}

// Table is an order's kernel table as a container holds it: the item rule,
// for containers that screen items before they lock a shard or resolve a
// key, and whether the order is the canonical one the codecs decode under.
type Table[T any] struct{ k kernels[T] }

// TableFor returns the kernel table of the order less (see kernelFor).
func TableFor[T any](less func(a, b T) bool) Table[T] { return Table[T]{kernelFor(less)} }

// Table returns the sketch's kernel table.
func (s *Sketch[T]) Table() Table[T] { return Table[T]{s.kern} }

// Admits reports whether x may enter a sketch under the table's order.
func (t Table[T]) Admits(x T) bool { return t.k.admits(x) }

// AdmitsAll reports whether every item of xs may enter a sketch under the
// table's order.
func (t Table[T]) AdmitsAll(xs []T) bool { return t.k.admitsAll(xs) }

// Admitted returns xs without the items the table drops, in their order.
// It copies only when it drops one, so a clean batch costs one scan.
func (t Table[T]) Admitted(xs []T) []T {
	if t.k.admitsAll(xs) {
		return xs
	}
	clean := make([]T, 0, len(xs)-1)
	for _, x := range xs {
		if t.k.admits(x) {
			clean = append(clean, x)
		}
	}
	return clean
}

// CheckCoreset reports why items cannot stand as a coreset between min and
// max under the table's order, or nil: min, max and every item admitted
// by its item rule, min ≤ items[0], items[len−1] ≤ max and min ≤ max, and
// the items ascending. Beyond the O(1) bounds it is two bulk scans, the
// same ones VerifyStructure runs on a decoded coreset.
func (t Table[T]) CheckCoreset(items []T, min, max T) error {
	if err := t.checkBounds(items, min, max); err != nil {
		return err
	}
	return t.checkItems(items)
}

// checkBounds is CheckCoreset's O(1) part: min and max admitted, not
// inverted, and bracketing the first and last item.
func (t Table[T]) checkBounds(items []T, min, max T) error {
	if !t.k.admits(min) || !t.k.admits(max) {
		return errors.New("core: min/max not admitted by the order (NaN)")
	}
	if t.k.less(max, min) {
		return errors.New("core: min/max inverted")
	}
	if len(items) > 0 && (t.k.less(items[0], min) || t.k.less(max, items[len(items)-1])) {
		return errors.New("core: coreset items outside [min, max]")
	}
	return nil
}

// checkItems is CheckCoreset's scans: every item admitted, then ascending.
func (t Table[T]) checkItems(items []T) error {
	if !t.k.admitsAll(items) {
		return errors.New("core: coreset holds an item its order does not admit (NaN)")
	}
	if !t.k.isSortedAsc(items) {
		return errors.New("core: coreset items not ascending")
	}
	return nil
}

// Canonical reports whether the table is a vec table, that is whether the
// order is LessF64 or LessU64.
func (t Table[T]) Canonical() bool {
	_, generic := t.k.(orderKernels[T])
	return !generic
}

// orderKernels is the kernel table of an arbitrary order: the generic
// algorithms bound to the caller's less. A one-field struct holding a func
// is pointer-shaped, so storing it in the kernels interface allocates
// nothing.
type orderKernels[T any] struct{ lt func(a, b T) bool }

func (k orderKernels[T]) less(a, b T) bool { return k.lt(a, b) }

func (orderKernels[T]) admits(T) bool      { return true }
func (orderKernels[T]) admitsAll([]T) bool { return true }

// gt is the reversed order.
func (k orderKernels[T]) gt(a, b T) bool { return k.lt(b, a) }

func (k orderKernels[T]) sortAsc(xs []T)  { sortSlice(xs, k.lt) }
func (k orderKernels[T]) sortDesc(xs []T) { sortSlice(xs, k.gt) }

func (k orderKernels[T]) mergeAsc(dst, add []T) []T  { return mergeSortedInto(dst, add, k.lt) }
func (k orderKernels[T]) mergeDesc(dst, add []T) []T { return mergeSortedInto(dst, add, k.gt) }

func (k orderKernels[T]) searchLE(xs []T, y T) int    { return searchLE(xs, y, k.lt) }
func (k orderKernels[T]) searchLT(xs []T, y T) int    { return searchLT(xs, y, k.lt) }
func (k orderKernels[T]) countLEDesc(xs []T, y T) int { return countLEDesc(xs, y, k.lt) }
func (k orderKernels[T]) countLTDesc(xs []T, y T) int { return countLTDesc(xs, y, k.lt) }

func (k orderKernels[T]) countLE(xs []T, y T) int {
	cnt := 0
	for _, x := range xs {
		if !k.lt(y, x) { // x ≤ y
			cnt++
		}
	}
	return cnt
}

func (k orderKernels[T]) countLT(xs []T, y T) int {
	cnt := 0
	for _, x := range xs {
		if k.lt(x, y) {
			cnt++
		}
	}
	return cnt
}

func (k orderKernels[T]) gallopLE(xs []T, from int, y T) int { return gallopLE(xs, from, y, k.lt) }
func (k orderKernels[T]) isSortedAsc(xs []T) bool            { return isSorted(xs, k.lt) }
func (k orderKernels[T]) isSortedDesc(xs []T) bool           { return isSorted(xs, k.gt) }

func (k orderKernels[T]) minMax(xs []T, mn, mx T) (T, T) {
	for _, x := range xs {
		if k.lt(x, mn) {
			mn = x
		} else if k.lt(mx, x) {
			mx = x
		}
	}
	return mn, mx
}

func (k orderKernels[T]) extendAsc(xs []T, sorted int) int  { return extendRun(xs, sorted, k.lt) }
func (k orderKernels[T]) extendDesc(xs []T, sorted int) int { return extendRun(xs, sorted, k.gt) }

// sortInternal sorts xs under the internal (compaction) order.
func (s *Sketch[T]) sortInternal(xs []T) {
	if s.cfg.HRA {
		s.kern.sortDesc(xs)
	} else {
		s.kern.sortAsc(xs)
	}
}

// mergeInternalInto merges the sorted block add into the sorted slice dst
// under the internal order (mergeSortedInto's contract: capacity ensured by
// the caller, add must not alias dst).
func (s *Sketch[T]) mergeInternalInto(dst, add []T) []T {
	if s.cfg.HRA {
		return s.kern.mergeDesc(dst, add)
	}
	return s.kern.mergeAsc(dst, add)
}

// extendSorted returns the length of xs's sorted prefix under the internal
// order, extended item by item from sorted (xs[:sorted] must be sorted).
//
//req:noalloc
func (s *Sketch[T]) extendSorted(xs []T, sorted int) int {
	if s.cfg.HRA {
		return s.kern.extendDesc(xs, sorted)
	}
	return s.kern.extendAsc(xs, sorted)
}
