// Package vec is the monomorphic data-parallel kernel layer for the hot
// inner loops of internal/core: searching, merging, sorting and counting,
// specialised to float64 and uint64 under their natural ascending order.
//
// The generic engine in internal/core is parameterized by a
// less(a, b T) bool closure, which costs an indirect call per comparison and
// defeats inlining and branch-free codegen. The kernels here are generic
// only over the Elem constraint (~float64 | ~uint64): the compiler stencils
// a separate instantiation per element type with the `<` comparison inlined,
// so every kernel is effectively monomorphic machine code. internal/core
// runs its hot paths through one kernel table per order (see core's
// kernels.go): the table of the canonical natural order routes them here,
// and every other order's table holds the generic algorithms bound to its
// less.
//
// # Bit-identity contract
//
// Every kernel must return bit-identical results to the generic code it
// replaces, for every input — including float64 NaN, ±0, ±Inf, and
// denormals. Two rules follow:
//
//   - Predicates keep their exact form. !(y < x) is NOT x <= y when NaN is
//     involved (both comparisons are false), so kernels spell out the same
//     negations the generic code uses.
//   - Stateful kernels (sort, merge, binary search) are structure-identical
//     transcriptions of the generic algorithms: the same probe sequence,
//     the same swaps, the same tie behaviour. On inputs that
//     violate the sortedness precondition (possible only when a raw core
//     sketch is fed NaN), a structurally different "equivalent" algorithm
//     would return a different wrong answer; an identical structure returns
//     the identical one. The differential suite (kernel_diff_test.go in
//     core, vec_test.go here) enforces this on adversarial inputs.
//
// Order-insensitive kernels (the linear count scans, HasNaN) are free to be
// 4x-unrolled and branch-free, because a count of independent per-element
// predicates is permutation-invariant. MinMax is deliberately sequential:
// float64 ±0 ties resolve to the first-seen operand, and reordering lanes
// would change which zero survives.
//
// # Hardware dispatch
//
// The linear scans additionally have AVX2 assembly variants (amd64 only),
// selected once at init by CPUID feature detection (AVX2 + OSXSAVE-enabled
// YMM state + POPCNT). The `purego` build tag, a non-amd64 GOARCH, or
// missing CPU features all fall back to the portable kernels; Accel()
// reports which implementation is live. Assembly is restricted to kernels
// whose vector semantics provably match Go's scalar comparisons (VCMPPD's
// unordered-quiet predicates match `<` on NaN exactly; uint64 compares go
// through a sign-bias XOR + signed VPCMPGTQ).
package vec

// Elem is the set of element types with monomorphic kernels: the two types
// the root package's typed constructors (req.NewFloat64, req.NewUint64, the
// sharded, registry and persisted variants) actually instantiate.
type Elem interface {
	~float64 | ~uint64
}

// b2i converts a bool to 0/1 without a branch (compiles to SETcc).
//
//req:noalloc
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
