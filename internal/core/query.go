package core

import (
	"errors"
	"iter"
	"math"

	"req/internal/vec"
)

// Query errors returned by the estimation methods.
var (
	// ErrEmpty is returned by quantile queries on an empty sketch.
	ErrEmpty = errors.New("core: sketch is empty")
	// ErrBadRank is returned for normalized ranks outside [0, 1].
	ErrBadRank = errors.New("core: normalized rank outside [0, 1]")
	// errUnsortedSplits is returned by CDF/PMF for out-of-order split
	// points, or for a split the order drops (NaN under LessF64).
	errUnsortedSplits = errors.New("core: CDF split points not sorted, or one is NaN")
)

// Rank returns the estimated inclusive rank of y: the number of stream items
// x with x ≤ y (Algorithm 2, Estimate-Rank). Items at level h count with
// weight 2^h. On an empty sketch the result is 0.
//
// Each level is a sorted buffer (plus at most a small unsorted append tail
// at level 0), so the count per level is one binary search plus a scan of
// the tail: O(levels·log b) instead of a linear pass over every retained
// item. It builds no view.
//
//req:noalloc
func (s *Sketch[T]) Rank(y T) uint64 {
	var r uint64
	for h := range s.levels {
		c := &s.levels[h]
		r += uint64(s.levelCountLE(c.buf, c.sorted, y)) << uint(h)
	}
	return r
}

// RankExclusive returns the estimated exclusive rank of y: the number of
// stream items x with x < y. Like Rank it binary-searches each sorted level
// buffer.
//
//req:noalloc
func (s *Sketch[T]) RankExclusive(y T) uint64 {
	var r uint64
	for h := range s.levels {
		c := &s.levels[h]
		r += uint64(s.levelCountLT(c.buf, c.sorted, y)) << uint(h)
	}
	return r
}

// levelCountLE counts items ≤ y in one level buffer: a binary search over
// the sorted prefix buf[:sorted] (stored descending in the caller's order
// for HRA sketches) plus a linear scan of the unsorted tail.
//
//req:noalloc
func (s *Sketch[T]) levelCountLE(buf []T, sorted int, y T) int {
	k := s.kern
	var cnt int
	if s.cfg.HRA {
		cnt = k.countLEDesc(buf[:sorted], y)
	} else {
		cnt = k.searchLE(buf[:sorted], y)
	}
	if sorted < len(buf) {
		cnt += k.countLE(buf[sorted:], y)
	}
	return cnt
}

// levelCountLT counts items < y in one level buffer; see levelCountLE.
//
//req:noalloc
func (s *Sketch[T]) levelCountLT(buf []T, sorted int, y T) int {
	k := s.kern
	var cnt int
	if s.cfg.HRA {
		cnt = k.countLTDesc(buf[:sorted], y)
	} else {
		cnt = k.searchLT(buf[:sorted], y)
	}
	if sorted < len(buf) {
		cnt += k.countLT(buf[sorted:], y)
	}
	return cnt
}

// NormalizedRank returns Rank(y)/n in [0, 1]. On an empty sketch it is 0.
func (s *Sketch[T]) NormalizedRank(y T) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Rank(y)) / float64(s.n)
}

// Quantile returns the estimated φ-quantile for φ ∈ [0, 1]: the smallest
// retained item whose normalized inclusive rank reaches φ. φ = 0 yields the
// exact minimum and φ = 1 the exact maximum (both tracked separately).
// The union of s's Work takes s alone: every level is settled in place
// (the sort-and-merge of the level-0 tail that each compaction starts
// with) and φ is selected over the sorted levels, building no view. The
// answer equals, under the order, that of the sorted view (among items
// equal under the order, such as +0 and −0, the view may hold the other
// one).
func (s *Sketch[T]) Quantile(phi float64) (T, error) {
	u := &s.workspace().union
	defer u.Reset()
	u.Add(s)
	return u.Quantile(phi)
}

// Quantiles returns the estimates for each φ in phis. It is a thin
// allocating wrapper over QuantilesInto.
func (s *Sketch[T]) Quantiles(phis []float64) ([]T, error) {
	return s.QuantilesInto(nil, phis)
}

// QuantilesInto answers every φ in phis, writing the estimates into dst
// (grown as needed; pass a slice retained across calls for steady-state
// allocation-free querying) and returning it with length len(phis). It
// reads as Quantile does: by selection over the settled levels (see
// Union.QuantilesInto), building no view.
func (s *Sketch[T]) QuantilesInto(dst []T, phis []float64) ([]T, error) {
	u := &s.workspace().union
	defer u.Reset()
	u.Add(s)
	return u.QuantilesInto(dst, phis)
}

// badPhi reports whether φ lies outside [0, 1] (or is NaN).
//
//req:noalloc
func badPhi(phi float64) bool {
	return math.IsNaN(phi) || phi < 0 || phi > 1
}

// quantileTarget is the cumulative weight ⌈φ·n⌉, clamped to [1, n], that
// the φ-quantile is the first retained entry to reach.
//
//req:noalloc
func quantileTarget(phi float64, n uint64) uint64 {
	target := uint64(math.Ceil(phi * float64(n)))
	if target == 0 {
		target = 1
	}
	if target > n {
		target = n
	}
	return target
}

// RankBatch returns the estimated inclusive rank of every probe in ys,
// written into dst (grown as needed) in the order of ys, from a sorted view
// merged in the sketch's Work; see View.RankBatch. Every call merges the
// levels once, amortized across the batch; on an empty sketch every rank
// is 0.
func (s *Sketch[T]) RankBatch(dst []uint64, ys []T) []uint64 {
	return s.sortedView().RankBatch(dst, ys)
}

// NormalizedRankBatch is RankBatch normalized by the stream length: every
// entry is Rank(y)/n in [0, 1] (0 on an empty sketch).
func (s *Sketch[T]) NormalizedRankBatch(dst []float64, ys []T) []float64 {
	return s.sortedView().NormalizedRankBatch(dst, ys)
}

// CDF returns the estimated normalized inclusive ranks at each split point.
// Splits must be sorted ascending in the sketch's order; the result has
// len(splits)+1 entries, the last being 1 (the mass ≤ +∞). It is a thin
// allocating wrapper over CDFInto.
func (s *Sketch[T]) CDF(splits []T) ([]float64, error) {
	return s.CDFInto(nil, splits)
}

// CDFInto is CDF writing into dst (grown as needed) and returning it.
func (s *Sketch[T]) CDFInto(dst []float64, splits []T) ([]float64, error) {
	if s.n == 0 {
		return nil, ErrEmpty
	}
	return s.sortedView().CDFInto(dst, splits)
}

// PMF returns the estimated probability mass in each interval delimited by
// the sorted split points: (−∞, s₀], (s₀, s₁], …, (s_last, +∞). It is a
// thin allocating wrapper over PMFInto.
func (s *Sketch[T]) PMF(splits []T) ([]float64, error) {
	return s.PMFInto(nil, splits)
}

// PMFInto is PMF writing into dst (grown as needed) and returning it.
func (s *Sketch[T]) PMFInto(dst []float64, splits []T) ([]float64, error) {
	if s.n == 0 {
		return nil, ErrEmpty
	}
	return s.sortedView().PMFInto(dst, splits)
}

// All iterates the sketch's weighted coreset: every retained item in
// ascending order with its weight, from the view the iteration merges in
// the sketch's Work when it starts. The sketch must not be written, nor
// its Work used, until the iteration ends.
func (s *Sketch[T]) All() iter.Seq2[T, uint64] {
	return func(yield func(item T, weight uint64) bool) {
		v := s.sortedView()
		for i, x := range v.items {
			if !yield(x, v.Weight(i)) {
				return
			}
		}
	}
}

// View is a frozen weighted coreset: items ascending in the caller's order
// with cumulative weights, the stream length and the exact min/max. It
// answers rank and quantile queries with one O(log size) search and batch
// queries with one galloping sweep, and it is what the root package's
// Snapshot serves.
//
// Ownership: a View holds its own arrays (MergeInto fills a View its
// caller owns) or arrays frozen elsewhere (see frozen.go). The one View a
// sketch keeps is the scratch in its Work that the batch reads and All
// merge into, which never leaves this package.
type View[T any] struct {
	items []T
	cum   []uint64 // cum[i] = total weight of items[0..i]
	// kern is the owning sketch's kernel table (kernels.go), order included.
	kern kernels[T]
	n    uint64
	min  T
	max  T
}

// sortedView merges the settled levels into the view in the sketch's Work
// and returns it: the scratch of the batch reads and of All, recycled by
// the Work's next build, so it is valid only until then or until the
// sketch's next write. Its storage is grow-only, so steady state allocates
// nothing. Single reads (Rank, Quantile, QuantilesInto) never build it.
func (s *Sketch[T]) sortedView() *View[T] {
	v := &s.workspace().view
	s.MergeInto(v)
	return v
}

// MergeInto merges the sketch's coreset into v, a view the caller owns:
// it settles every level through s's Work, sizes v's arrays to the
// retained count — exactly when v has no storage yet, reusing it otherwise
// (see resize) — and k-way merges the levels into them through the Work's
// cursor scratch. v shares no storage with s, so it stays valid across any
// later write. A sketch that retains nothing has nothing to merge, and
// borrows no Work for it.
func (s *Sketch[T]) MergeInto(v *View[T]) {
	s.settleLevels()
	v.resize(s.retained)
	v.kern, v.n, v.min, v.max = s.kern, s.n, s.min, s.max
	if s.retained == 0 {
		return
	}
	w := s.workspace()
	// The cursors are staged on a reusable heap slice: a slice handed
	// through the kernel table's indirect call escapes, so a stack array
	// here would allocate per merge — w.curs amortizes that to one
	// grow-only allocation.
	cs := w.curs[:0]
	for h := range s.levels {
		b := s.levels[h].buf
		if len(b) == 0 {
			continue
		}
		cur := vec.KWayCursor[T]{Buf: b, W: uint64(1) << uint(h)}
		if s.cfg.HRA {
			cur.Pos, cur.End, cur.Step = len(b)-1, -1, -1
		} else {
			cur.Pos, cur.End, cur.Step = 0, len(b), 1
		}
		cs = append(cs, cur)
	}
	s.kern.kway(cs, v.items, v.cum)
	// Scrub the buffer aliases so the scratch never keeps level buffers
	// reachable past the merge.
	clear(cs)
	w.curs = cs
}

// resize sets both arrays' length to n for a rebuild. The first build
// (no storage yet) sizes them exactly, as a registry holds many small
// views; later ones reuse the storage, growing it with headroom
// (resizeAmortized). The abandoned tail is zeroed so pointer-bearing
// items do not linger in the recycled backing array.
func (v *View[T]) resize(n int) {
	if n < len(v.items) {
		clear(v.items[n:])
	}
	if cap(v.items) == 0 {
		v.items, v.cum = resizeSlice(v.items, n), resizeSlice(v.cum, n)
	} else {
		v.items, v.cum = resizeAmortized(v.items, n), resizeAmortized(v.cum, n)
	}
}

// resizeSlice returns xs with length n, reusing the backing array when
// capacity suffices and allocating exactly otherwise. Existing contents are
// NOT preserved across a reallocation.
func resizeSlice[T any](xs []T, n int) []T {
	if cap(xs) >= n {
		return xs[:n]
	}
	return make([]T, n)
}

// resizeAmortized is resizeSlice with ~1/8 headroom: contents are not
// preserved, but repeated small growth amortizes to O(1) reallocations.
// Rebuilt views need it, because the retained count creeps past its
// high-water mark from one rebuild to the next.
func resizeAmortized[T any](xs []T, n int) []T {
	if cap(xs) >= n {
		return xs[:n]
	}
	return make([]T, n, n+n/8+16)
}

// kway is the generic k-way merge: a min-heap over the cursors keyed by
// each cursor's current head item, accumulating cumulative weights as it
// writes (vec.KWayMerge's contract).
func (k orderKernels[T]) kway(curs []vec.KWayCursor[T], items []T, cum []uint64) {
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
	headLess := func(a, b *vec.KWayCursor[T]) bool {
		return k.lt(a.Buf[a.Pos], b.Buf[b.Pos])
	}
	n := len(curs)
	sift := func(root int) {
		for {
			child := 2*root + 1
			if child >= n {
				return
			}
			if child+1 < n && headLess(&curs[child+1], &curs[child]) {
				child++
			}
			if !headLess(&curs[child], &curs[root]) {
				return
			}
			curs[root], curs[child] = curs[child], curs[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i)
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
		sift(0)
	}
}

// Size returns the number of retained entries in the view.
//
//req:noalloc
func (v *View[T]) Size() int { return len(v.items) }

// Count returns the total weight summarised (the stream length n).
//
//req:noalloc
func (v *View[T]) Count() uint64 { return v.n }

// Empty reports whether the view summarises no items.
//
//req:noalloc
func (v *View[T]) Empty() bool { return v.n == 0 }

// Min returns the smallest item seen. ok is false when empty.
//
//req:noalloc
func (v *View[T]) Min() (item T, ok bool) { return v.min, v.n > 0 }

// Max returns the largest item seen. ok is false when empty.
//
//req:noalloc
func (v *View[T]) Max() (item T, ok bool) { return v.max, v.n > 0 }

// Items returns the retained items in ascending order. The slice is shared;
// callers must not modify it.
func (v *View[T]) Items() []T { return v.items }

// CumulativeWeights returns cum[i] = weight of items[0..i]. Shared slice.
func (v *View[T]) CumulativeWeights() []uint64 { return v.cum }

// Rank returns the estimated inclusive rank of y.
//
//req:noalloc
func (v *View[T]) Rank(y T) uint64 {
	return v.rankAt(v.kern.searchLE(v.items, y))
}

// RankExclusive returns the estimated exclusive rank of y.
//
//req:noalloc
func (v *View[T]) RankExclusive(y T) uint64 {
	return v.rankAt(v.kern.searchLT(v.items, y))
}

// NormalizedRank returns Rank(y)/Count() in [0, 1] (0 when empty).
//
//req:noalloc
func (v *View[T]) NormalizedRank(y T) float64 {
	if v.n == 0 {
		return 0
	}
	return float64(v.Rank(y)) / float64(v.n)
}

// rankAt returns the total weight of the first pos entries.
//
//req:noalloc
func (v *View[T]) rankAt(pos int) uint64 {
	if pos == 0 {
		return 0
	}
	return v.cum[pos-1]
}

// RankBatch answers Rank for every probe in ys, writing into dst (grown as
// needed) in probe order and returning it. A sorted probe set (ascending
// or descending) is answered with one forward galloping sweep over the
// view, so a dense batch costs O(1) comparisons per probe; any other set
// is answered probe by probe with Rank. Either way the batch allocates
// nothing beyond dst.
func (v *View[T]) RankBatch(dst []uint64, ys []T) []uint64 {
	dst = resizeSlice(dst, len(ys))
	v.rankSweep(ys, func(qi int, rank uint64) {
		dst[qi] = rank
	})
	return dst
}

// NormalizedRankBatch is RankBatch normalized by the total weight: every
// entry is Rank(y)/n in [0, 1] (0 when the view is empty).
func (v *View[T]) NormalizedRankBatch(dst []float64, ys []T) []float64 {
	dst = resizeSlice(dst, len(ys))
	nf := float64(v.n)
	v.rankSweep(ys, func(qi int, rank uint64) {
		if v.n == 0 {
			dst[qi] = 0
		} else {
			dst[qi] = float64(rank) / nf
		}
	})
	return dst
}

// rankSweep computes the inclusive rank of every probe, reporting results
// in input order via emit: one forward galloping sweep for a sorted probe
// set, one Rank per probe otherwise. A probe the order drops (NaN under
// LessF64) compares false both ways, so it can pass the sortedness checks
// while the sweep's cursor runs past every later probe; a set holding one
// is answered probe by probe.
func (v *View[T]) rankSweep(ys []T, emit func(qi int, rank uint64)) {
	kn := v.kern
	sweep := kn.admitsAll(ys)
	switch {
	case sweep && kn.isSortedAsc(ys):
		pos := 0
		for qi, y := range ys {
			pos = kn.gallopLE(v.items, pos, y)
			emit(qi, v.rankAt(pos))
		}
	case sweep && kn.isSortedDesc(ys):
		pos := 0
		for qi := len(ys) - 1; qi >= 0; qi-- {
			pos = kn.gallopLE(v.items, pos, ys[qi])
			emit(qi, v.rankAt(pos))
		}
	default:
		for qi, y := range ys {
			emit(qi, v.Rank(y))
		}
	}
}

// QuantilesInto answers every φ in phis, writing the estimates into dst
// (grown as needed) in input order and returning it with length len(phis).
// The answers come from one galloping sweep over the cumulative weights
// that restarts wherever φ drops, so a sorted φ set is a single forward
// pass and any order is answered without sorting or allocating beyond dst.
// Any φ outside [0, 1] (or NaN) fails the whole batch with ErrBadRank; an
// empty view yields ErrEmpty.
func (v *View[T]) QuantilesInto(dst []T, phis []float64) ([]T, error) {
	dst = resizeSlice(dst, len(phis))
	if len(phis) == 0 {
		return dst, nil
	}
	if v.n == 0 {
		return nil, ErrEmpty
	}
	for _, phi := range phis {
		if badPhi(phi) {
			return nil, ErrBadRank
		}
	}
	pos := 0
	for i, phi := range phis {
		if i > 0 && phi < phis[i-1] {
			pos = 0
		}
		dst[i], pos = v.quantileAt(phi, pos)
	}
	return dst, nil
}

// quantileAt resolves one (validated) φ during a sweep: pos is the cursor
// into cum below which every cumulative weight is known to be short of the
// target. It returns the estimate and the advanced cursor.
//
//req:noalloc
func (v *View[T]) quantileAt(phi float64, pos int) (T, int) {
	if phi == 0 {
		return v.min, pos
	}
	if phi == 1 {
		return v.max, pos
	}
	pos = vec.GallopCumGE(v.cum, pos, quantileTarget(phi, v.n))
	if pos == len(v.items) {
		// Total retained weight can be less than n only if the sketch was
		// restored from a foreign snapshot; clamp to the maximum.
		return v.max, pos
	}
	return v.items[pos], pos
}

// CDFInto writes the estimated normalized inclusive rank at each split
// point into dst (grown as needed; len(splits)+1 entries, the last being 1)
// and returns it. Splits must be sorted ascending and hold no item the
// order drops: a NaN split compares false both ways, so it passes the
// sortedness check while the sweep's cursor runs past every later split.
// The whole batch is one forward galloping sweep with zero allocations
// beyond dst.
func (v *View[T]) CDFInto(dst []float64, splits []T) ([]float64, error) {
	if v.n == 0 {
		return nil, ErrEmpty
	}
	if !v.kern.admitsAll(splits) || !v.kern.isSortedAsc(splits) {
		return nil, errUnsortedSplits
	}
	dst = resizeSlice(dst, len(splits)+1)
	nf := float64(v.n)
	pos := 0
	for i, sp := range splits {
		pos = v.kern.gallopLE(v.items, pos, sp)
		dst[i] = float64(v.rankAt(pos)) / nf
	}
	dst[len(splits)] = 1
	return dst, nil
}

// PMFInto writes the estimated probability mass of each interval delimited
// by the ascending split points into dst (grown as needed): one CDF sweep
// followed by adjacent differencing.
func (v *View[T]) PMFInto(dst []float64, splits []T) ([]float64, error) {
	dst, err := v.CDFInto(dst, splits)
	if err != nil {
		return nil, err
	}
	prev := 0.0
	for i, c := range dst {
		dst[i] = c - prev
		prev = c
	}
	return dst, nil
}

// Weight returns the weight of items[i] (the difference of consecutive
// cumulative weights).
//
//req:noalloc
func (v *View[T]) Weight(i int) uint64 {
	if i == 0 {
		return v.cum[0]
	}
	return v.cum[i] - v.cum[i-1]
}

// Quantile returns the smallest retained item whose cumulative weight
// reaches ⌈φ·n⌉.
func (v *View[T]) Quantile(phi float64) (T, error) {
	var zero T
	if v.n == 0 {
		return zero, ErrEmpty
	}
	if badPhi(phi) {
		return zero, ErrBadRank
	}
	q, _ := v.quantileAt(phi, 0)
	return q, nil
}
