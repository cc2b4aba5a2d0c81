// Package a mirrors the shapes of internal/core's level buffers to seed
// positive and negative cases for the slabalias analyzer. The analyzer
// activates because this package declares a compactor type.
package a

import "slices"

type item struct{ v float64 }

type compactor struct {
	buf    []item
	sorted int
}

type sketch struct {
	levels []compactor
	work   *work
}

// work mirrors core.Work: the settle and emission scratch, the merge
// staging and a view to merge into, which a sketch borrows from its
// owner.
type work struct {
	scratch  []item
	mergeBuf []item
	view     struct {
		items []item
		cum   []uint64
	}
}

func (s *sketch) resizeLevels(n int)   { s.levels = append(s.levels[:0], make([]compactor, n)...) }
func (s *sketch) compactCascade(h int) {}

func (s *sketch) badScratchAlias() {
	s.work.scratch = s.levels[0].buf // want "scratch buffers must never alias a level"
}

func (s *sketch) badScratchAliasViaLocal() {
	w := s.levels[0].buf
	s.work.scratch = w[:0] // want "scratch buffers must never alias a level"
}

func (s *sketch) badMergeBufAlias() {
	s.work.mergeBuf = s.levels[1].buf[:0] // want "scratch buffers must never alias a level"
}

func (s *sketch) badLentScratchAlias(w *work) {
	w.scratch = s.levels[0].buf // want "scratch buffers must never alias a level"
}

func (s *sketch) badWorkViewAlias(w *work) {
	head := s.levels[1].buf
	w.view.items = head[:0] // want "scratch buffers must never alias a level"
}

func (s *sketch) okLentMergeBufCopy(w *work) {
	// Append-copy moves the items out of the level; no aliasing.
	w.mergeBuf = append(w.mergeBuf[:0], s.levels[1].buf...)
}

func (s *sketch) okScratchCopy() {
	// Append-copy moves the items out of the level; no aliasing.
	s.work.scratch = append(s.work.scratch[:0], s.levels[0].buf...)
}

func (s *sketch) badStaleAfterGrow() float64 {
	tail := s.levels[0].buf[1:]
	s.levels[0].buf = slices.Grow(s.levels[0].buf, 64)
	return tail[0].v // want "used after Grow may have reallocated it"
}

func (s *sketch) badStaleAfterAppend(x item) float64 {
	head := s.levels[0].buf
	s.levels[0].buf = append(s.levels[0].buf, x)
	return head[0].v // want "used after append may have reallocated it"
}

func (s *sketch) badStaleAfterCompaction() float64 {
	tail := s.levels[0].buf[1:]
	s.compactCascade(0)
	return tail[0].v // want "used after compactCascade may have reallocated it"
}

func (s *sketch) okReslicedBuffer() float64 {
	tail := s.levels[0].buf[1:]
	s.levels[0].buf = slices.Grow(s.levels[0].buf, 64)
	tail = s.levels[0].buf[1:]
	return tail[0].v // ok: re-sliced after the growth
}

func (s *sketch) okScratchAppend(x item) float64 {
	tail := s.levels[0].buf[1:]
	s.work.scratch = append(s.work.scratch, x)
	return tail[0].v // ok: the append grew the scratch, not a level
}

func (s *sketch) badStaleCompactor() {
	c := &s.levels[0]
	s.resizeLevels(2)
	c.sorted = 0 // want "re-take the pointer"
}

func (s *sketch) okRetakenCompactor() {
	c := &s.levels[0]
	s.resizeLevels(2)
	c = &s.levels[0]
	c.sorted = 0 // ok: pointer re-taken after growth
}

func (s *sketch) okShieldedByContinue() {
	for i := 0; i < 4; i++ {
		lv := &s.levels[0]
		if len(lv.buf) > 8 {
			s.compactCascade(0)
			continue
		}
		lv.sorted = 0 // ok: the continue shields this use from the compaction
	}
}

func (s *sketch) okOtherSketchGrowth(src *sketch) {
	add := src.levels[0].buf
	s.levels[0].buf = slices.Grow(s.levels[0].buf, len(add))
	s.levels[0].buf = append(s.levels[0].buf, add...) // ok: s grew, add aliases src's level
}

func (s *sketch) badStaleMultiValueAlias(x item) float64 {
	head, n := s.levels[0].buf, 0
	s.levels[0].buf = append(s.levels[0].buf, x)
	return head[n].v // want "used after append may have reallocated it"
}

func (s *sketch) badStaleAfterGrowthViaCompactor(x item) float64 {
	head := s.levels[0].buf
	lv := &s.levels[0]
	lv.buf = append(lv.buf, x)
	return head[0].v // want "used after append may have reallocated it"
}

func (s *sketch) badStaleCompactorAliasAfterGrowth(x item) float64 {
	lv := &s.levels[0]
	head := lv.buf
	s.levels[0].buf = append(s.levels[0].buf, x)
	return head[0].v // want "used after append may have reallocated it"
}

func (s *sketch) okCompactorGrowthOtherSketch(src *sketch, x item) float64 {
	head := src.levels[0].buf
	lv := &s.levels[0]
	lv.buf = append(lv.buf, x)
	return head[0].v // ok: lv points into s, head aliases src's level
}
