package vec

// Monomorphic k-way merge of sorted level buffers into a view's item and
// cumulative-weight arrays: the kernel form of core's generic
// orderKernels.kway, with the heap comparisons inlined (`<` instead of a
// headLess closure).

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

// KWayMerge merges the cursors' buffers ascending into items, filling cum
// with cumulative weights as it writes. items and cum must have length
// equal to the total number of buffered elements. curs is reordered freely
// (it is heap scratch); the buffers themselves are only read.
//
//req:noalloc
func KWayMerge[E Elem](curs []KWayCursor[E], items []E, cum []uint64) {
	if len(curs) == 0 {
		return
	}
	var run uint64
	if len(curs) == 1 {
		c := &curs[0]
		for i := range items {
			run += c.W
			items[i] = c.Buf[c.Pos]
			cum[i] = run
			c.Pos += c.Step
		}
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
		run += c.W
		items[out] = c.Buf[c.Pos]
		cum[out] = run
		c.Pos += c.Step
		if c.Pos == c.End {
			n--
			curs[0] = curs[n]
		}
		siftKWay(curs, 0, n)
	}
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
