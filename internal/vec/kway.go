package vec

// Monomorphic k-way merge of sorted level buffers into a view's item and
// cumulative-weight arrays: the kernel form of core's generic
// orderKernels.kway, with the heap comparisons inlined (`<` instead of a
// headLess closure) and software prefetch hints on the cursor streams.

// KWayCursor walks one sorted level buffer in ascending caller order during
// the k-way merge. Unconstrained in the element type so internal/core's
// generic merge shares it for any T; only KWayMerge requires Elem.
type KWayCursor[T any] struct {
	Buf  []T
	Pos  int // current index
	End  int // one past the last index, in walk direction
	Step int // +1 (LRA) or -1 (HRA: buffers are stored reversed)
	W    uint64
}

// prefetchStride is how many elements ahead of a cursor's read position the
// merge prefetches, and (as a mask) how often: a prefetch per element would
// cost more in call overhead than the hint saves, so cursors issue one hint
// every 8 advances, 16 elements (two cache lines) ahead.
const prefetchStride = 16

// KWayMerge merges the cursors' buffers ascending into items, filling cum
// with cumulative weights. items and cum must have length equal to the
// total number of buffered elements. curs is reordered freely (it is heap
// scratch); the buffers themselves are only read.
//
// The merge stages each item's raw weight into cum and finishes with one
// CumSumU64 sweep — keeping the serial accumulator out of the
// comparison-bound heap loop and letting the AVX2 prefix-sum kernel handle
// the arithmetic. Exact uint64 addition makes the two-pass form
// bit-identical to the fused one.
//
//req:noalloc
func KWayMerge[E Elem](curs []KWayCursor[E], items []E, cum []uint64) {
	if len(curs) == 0 {
		return
	}
	if len(curs) == 1 {
		c := &curs[0]
		for i := range items {
			items[i] = c.Buf[c.Pos]
			cum[i] = c.W
			c.Pos += c.Step
		}
		cumSumU64(cum, 0)
		return
	}
	// Min-heap over the cursors, keyed by each cursor's current head item —
	// identical structure to the generic sift, with the closure inlined.
	n := len(curs)
	for i := n/2 - 1; i >= 0; i-- {
		siftKWay(curs, i, n)
	}
	for out := 0; n > 0; out++ {
		c := &curs[0]
		items[out] = c.Buf[c.Pos]
		cum[out] = c.W
		c.Pos += c.Step
		if c.Pos == c.End {
			n--
			curs[0] = curs[n]
		} else if c.Pos&7 == 0 {
			if p := c.Pos + c.Step*prefetchStride; uint(p) < uint(len(c.Buf)) {
				prefetchIndex(c.Buf, p)
			}
		}
		siftKWay(curs, 0, n)
	}
	cumSumU64(cum, 0)
}

//req:noalloc
func siftKWay[E Elem](curs []KWayCursor[E], root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n &&
			curs[child+1].Buf[curs[child+1].Pos] < curs[child].Buf[curs[child].Pos] {
			child++
		}
		if !(curs[child].Buf[curs[child].Pos] < curs[root].Buf[curs[root].Pos]) {
			return
		}
		curs[root], curs[child] = curs[child], curs[root]
		root = child
	}
}
