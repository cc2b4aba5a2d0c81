package vec

import "math/bits"

// Eytzinger (BFS-layout) descents, structure-identical to internal/core's
// eytzinger.go with less specialised to `<`. items is the 1-based BFS array
// (slot 0 unused); the return value is the fixed-up Eytzinger slot of the
// answer, 0 meaning the search ran off the right edge (no qualifying
// element) — the caller maps slots to before[]/total.

// eytFixup converts the descent's path-encoded position into the Eytzinger
// slot of the answer: shifting out the trailing 1-bits (the final run of
// right turns) plus one leaves the last node where the search went left.
//
//req:noalloc
func eytFixup(k int) int {
	return k >> (uint(bits.TrailingZeros(^uint(k))) + 1)
}

// EytRankLE descends to the first element > y (everything before it is ≤ y,
// the inclusive-rank descent).
//
//req:noalloc
func EytRankLE[E Elem](items []E, y E) int {
	k := 1
	for k < len(items) {
		if y < items[k] {
			k = 2 * k
		} else {
			k = 2*k + 1
		}
	}
	return eytFixup(k)
}

// EytRankGE descends to the first element ≥ y (the exclusive-rank descent).
//
//req:noalloc
func EytRankGE[E Elem](items []E, y E) int {
	k := 1
	for k < len(items) {
		if items[k] < y {
			k = 2*k + 1
		} else {
			k = 2 * k
		}
	}
	return eytFixup(k)
}

// rankLanes is the number of descents EytRankBatch runs in lockstep,
// matching core's generic eytRankBatch: each lane's next probe is an
// independent cache miss, so the memory system keeps several loads in
// flight.
const rankLanes = 8

// EytRankBatch answers the inclusive rank of every probe in ys, writing
// into out (same length as ys) in input order: the monomorphic form of
// core's generic eytRankBatch lockstep descent.
//
//req:noalloc
func EytRankBatch[E Elem](items []E, before []uint64, total uint64, ys []E, out []uint64) {
	n := len(items) - 1
	items = items[: n+1 : n+1]
	// Every root-to-leaf path has length depth or depth−1, and a node index
	// can only exceed n on the very last step, so the descent runs unguarded
	// for depth−1 levels and guards only the final one (see the generic
	// eytRankBatch for the bound proof).
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
				k := ks[l]
				if ys[base+l] < items[k] {
					ks[l] = 2 * k
				} else {
					ks[l] = 2*k + 1
				}
			}
		}
		for l := 0; l < m; l++ {
			k := ks[l]
			if k <= n {
				if ys[base+l] < items[k] {
					ks[l] = 2 * k
				} else {
					ks[l] = 2*k + 1
				}
			}
		}
		for l := 0; l < m; l++ {
			k := eytFixup(ks[l])
			if k == 0 {
				out[base+l] = total
			} else {
				out[base+l] = before[k]
			}
		}
	}
}
