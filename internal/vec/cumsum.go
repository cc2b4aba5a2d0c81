package vec

// Cumulative-weight rewrite: the prefix-sum pass of the k-way view rebuild
// (KWayMerge), which stages raw per-item weights into the cum array and
// finishes with one CumSumU64 sweep, so the pass is a single dispatchable
// kernel instead of a serial accumulator threaded through the merge loop.
//
// uint64 addition is associative and commutative mod 2^64, so any blocking
// or vectorization of the sweep is bit-identical to the left-to-right scalar
// loop on every input, overflow included — the same "provably identical"
// bar the count scans meet (see dispatch.go).

// cumSumPortable is the scalar reference: xs[i] ← base + xs[0] + … + xs[i].
//
//req:noalloc
func cumSumPortable(xs []uint64, base uint64) {
	for i := range xs {
		base += xs[i]
		xs[i] = base
	}
}
