package core

import "math/bits"

// Eytzinger-layout rank index for frozen views.
//
// A sorted array answers rank queries in log₂(n) branchy, cache-hostile
// probes: each halving lands far from the last, and the branch predictor
// gets a coin flip per level. The Eytzinger (BFS / implicit heap) layout
// stores the same search tree level by level in one array, so the first few
// levels — the probes every query makes — share a handful of cache lines,
// and the descent compiles to a branch-free select per level (the
// comparison only feeds the child index computation, never a jump). This is
// the classic fast static search layout (Khuong & Morin, "Array layouts for
// comparison-based searching").
//
// The index is built lazily by Freeze (never by SortedView alone): it costs
// one O(n) pass and 3 parallel arrays, which only pays off when a frozen
// sketch is queried repeatedly — exactly what Freeze signals. Its storage
// is recycled across rebuilds like the view's own arrays, so re-freezing
// after writes allocates nothing in steady state.
//
// Once built, an index must be treated as immutable: Sharded builds it
// before publishing an epoch's view, and readers only ever observe it
// complete.

// eytIndex holds the search tree in BFS order, 1-based: node k has children
// 2k and 2k+1, and slot 0 is unused. The three arrays are parallel, but a
// rank descent touches only items and a quantile descent only cum, so each
// search streams one array.
type eytIndex[T any] struct {
	items  []T      // node item values
	cum    []uint64 // cumulative weight through the node's sorted position
	before []uint64 // cumulative weight strictly before the node's position
	total  uint64   // total retained weight (= last sorted cum entry)
	built  bool
}

// buildIndex materializes the Eytzinger index from the sorted view arrays.
// Idempotent; reuses previously grown index storage.
func (v *View[T]) buildIndex() {
	if v.idx.built || len(v.items) == 0 {
		return
	}
	n := len(v.items)
	if n+1 < len(v.idx.items) {
		// Zero the abandoned tail (mirroring rebuildView's scrub of the view
		// arrays) so pointer-bearing items from a larger earlier coreset do
		// not stay reachable through the recycled index storage.
		var zero T
		for i := n + 1; i < len(v.idx.items); i++ {
			v.idx.items[i] = zero
		}
	}
	v.idx.items = resizeAmortized(v.idx.items, n+1)
	v.idx.cum = resizeAmortized(v.idx.cum, n+1)
	v.idx.before = resizeAmortized(v.idx.before, n+1)
	var zero T
	v.idx.items[0] = zero // slot 0 is unused by the 1-based layout
	v.idx.total = v.cum[n-1]
	v.fillIndex(1, 0)
	v.idx.built = true
}

// fillIndex places v.items[next:] into the subtree rooted at Eytzinger slot
// k by in-order descent, returning the advanced position. Recursion depth is
// ⌈log₂ n⌉.
func (v *View[T]) fillIndex(k, next int) int {
	if k > len(v.items) {
		return next
	}
	next = v.fillIndex(2*k, next)
	v.idx.items[k] = v.items[next]
	v.idx.cum[k] = v.cum[next]
	if next == 0 {
		v.idx.before[k] = 0
	} else {
		v.idx.before[k] = v.cum[next-1]
	}
	next++
	return v.fillIndex(2*k+1, next)
}

// eytFixup converts the descent's path-encoded position into the Eytzinger
// slot of the answer: shifting out the trailing 1-bits (the final run of
// right turns) plus one leaves the last node where the search went left —
// the standard ffs(~k) fixup. A result of 0 means the search ran off the
// right edge (no qualifying element).
//
//req:noalloc
func eytFixup(k int) int {
	return k >> (uint(bits.TrailingZeros(^uint(k))) + 1)
}

// rankAt maps a descent's fixed-up slot to a rank: the weight before the
// slot's position, or the total when the descent ran off the right edge.
//
//req:noalloc
func (idx *eytIndex[T]) rankAt(k int) uint64 {
	if k == 0 {
		return idx.total
	}
	return idx.before[k]
}

// eytRankLE is the generic inclusive-rank descent: descend to the first
// element > y; everything before it is ≤ y. The loop condition
// k < len(items) doubles as the bounds proof for items[k], so the descent
// runs check-free.
//
//req:noalloc
func (k orderKernels[T]) eytRankLE(items []T, y T) int {
	i := 1
	for i < len(items) {
		if k.lt(y, items[i]) {
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	return eytFixup(i)
}

// eytRankGE is the generic exclusive-rank descent: descend to the first
// element ≥ y.
//
//req:noalloc
func (k orderKernels[T]) eytRankGE(items []T, y T) int {
	i := 1
	for i < len(items) {
		if k.lt(items[i], y) {
			i = 2*i + 1
		} else {
			i = 2 * i
		}
	}
	return eytFixup(i)
}

// rankLanes is the number of Eytzinger descents eytRankBatch runs in
// lockstep. Each lane's next probe is an independent cache miss, so the
// memory system keeps several loads in flight instead of serializing one
// descent's misses behind the previous descent's.
const rankLanes = 8

// eytRankBatch is the generic whole-batch descent: it writes the inclusive
// rank of every probe into out in input order. Probes are processed
// rankLanes at a time: the lanes step down the tree together, overlapping
// their memory latencies — the win that makes unsorted large batches
// cheaper per probe than independent searches.
func (k orderKernels[T]) eytRankBatch(items []T, before []uint64, total uint64, ys []T, out []uint64) {
	n := len(items) - 1
	items = items[: n+1 : n+1]
	idx := eytIndex[T]{before: before, total: total}
	// Every root-to-leaf path has length depth or depth−1, and a node index
	// can only exceed n on the very last step (after d steps k < 2^(d+1) ≤
	// 2^(depth−1) ≤ n for d ≤ depth−2), so the descent runs unguarded for
	// depth−1 levels and guards only the final one.
	depth := bits.Len(uint(n))
	var ks [rankLanes]int
	for base := 0; base < len(ys); base += rankLanes {
		m := len(ys) - base
		if m > rankLanes {
			m = rankLanes
		}
		for l := 0; l < m; l++ {
			ks[l] = 1
		}
		for d := 0; d < depth-1; d++ {
			for l := 0; l < m; l++ {
				i := ks[l]
				if k.lt(ys[base+l], items[i]) {
					ks[l] = 2 * i
				} else {
					ks[l] = 2*i + 1
				}
			}
		}
		for l := 0; l < m; l++ {
			i := ks[l]
			if i <= n {
				if k.lt(ys[base+l], items[i]) {
					ks[l] = 2 * i
				} else {
					ks[l] = 2*i + 1
				}
			}
		}
		for l := 0; l < m; l++ {
			out[base+l] = idx.rankAt(eytFixup(ks[l]))
		}
	}
}

// quantile returns the item at the first position whose cumulative weight
// reaches target (1 ≤ target ≤ total). clamp is returned if no position
// qualifies, which can only happen for foreign snapshots whose retained
// weight undershoots n.
//
//req:noalloc
func (idx *eytIndex[T]) quantile(target uint64, clamp T) T {
	cum := idx.cum
	k := 1
	for k < len(cum) {
		if cum[k] < target {
			k = 2*k + 1
		} else {
			k = 2 * k
		}
	}
	k = eytFixup(k)
	if k == 0 {
		return clamp
	}
	return idx.items[k]
}
