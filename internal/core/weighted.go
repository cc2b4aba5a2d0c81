package core

import (
	"errors"
	"math/bits"
)

// ErrWeightOverflow is returned when a weighted update would push the total
// stream length past the representable bound.
var ErrWeightOverflow = errors.New("core: weighted update overflows stream length")

// UpdateWeighted inserts x with integer weight, equivalent to weight
// repeated Updates but in O(popcount + B) buffer insertions instead of
// O(weight). An item the order's table drops is ignored, as in Update.
//
// This is an extension beyond the paper (which treats unit updates; the
// trick mirrors weighted updates in KLL implementations): since items at
// level h carry weight 2^h, a weight-w item decomposes in binary and enters
// level h once per set bit h. Inserting at level h is exactly equivalent to
// an item that survived h compactions without ever being the error item, so
// all invariants — exact weight conservation in particular — are preserved,
// and rank estimates treat the insertion identically to w unit copies.
//
// To keep the level count within Observation 13's bound, bits above
// h_max ≈ log₂(n′/(B/2)) (n′ the new total weight) are folded into up to
// ~B/2 copies at h_max rather than opening deeper levels.
func (s *Sketch[T]) UpdateWeighted(x T, weight uint64) error {
	if weight == 0 || !s.kern.admits(x) {
		return nil
	}
	if weight > maxBound || s.n > maxBound-weight {
		return ErrWeightOverflow
	}
	if weight == 1 {
		s.update(x)
		return nil
	}
	s.invalidate()
	if !s.hasMinMax {
		s.min, s.max = x, x
		s.hasMinMax = true
	} else {
		if s.kern.less(x, s.min) {
			s.min = x
		}
		if s.kern.less(s.max, x) {
			s.max = x
		}
	}
	total := s.n + weight
	if total > s.bound {
		s.growTo(total)
	}
	// Highest level weighted mass may enter directly.
	half := uint64(s.geom.b / 2)
	if half == 0 {
		half = 1
	}
	hmax := bits.Len64(total / half)
	if hmax > 62 {
		hmax = 62
	}
	copies := weight >> uint(hmax)
	rem := weight - copies<<uint(hmax)
	for i := uint64(0); i < copies; i++ {
		s.insertAtLevel(hmax, x)
	}
	for h := 0; h < hmax; h++ {
		if rem&(uint64(1)<<uint(h)) != 0 {
			s.insertAtLevel(h, x)
		}
	}
	s.n = total
	s.compactCascade(0)
	return nil
}

// insertAtLevel appends x to the level-h buffer, creating intermediate
// levels as needed. Compaction is deferred to the caller's cascade. The
// append lands on the unsorted tail unless it extends the sorted prefix;
// any tail left on levels ≥ 1 is settled by the next compaction, view
// build or live read.
func (s *Sketch[T]) insertAtLevel(h int, x T) {
	if h >= len(s.levels) {
		s.resizeLevels(h + 1)
	}
	lv := &s.levels[h]
	if lv.sorted == len(lv.buf) && (lv.sorted == 0 || !s.internalLess(x, lv.buf[lv.sorted-1])) {
		lv.sorted++
	}
	lv.buf = append(lv.buf, x)
	s.retained++
	if len(lv.buf) > s.stats.MaxBufferLen {
		s.stats.MaxBufferLen = len(lv.buf)
	}
}
