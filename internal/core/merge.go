package core

import (
	"errors"
	"slices"

	"req/internal/schedule"
)

// add accumulates o into st field-wise (counters add, high-water max).
func (st *Stats) add(o Stats) {
	st.Compactions += o.Compactions
	st.SpecialCompactions += o.SpecialCompactions
	st.Growths += o.Growths
	st.Merges += o.Merges
	st.CoinFlips += o.CoinFlips
	if o.MaxBufferLen > st.MaxBufferLen {
		st.MaxBufferLen = o.MaxBufferLen
	}
}

// sub subtracts o from st field-wise; MaxBufferLen is left alone.
func (st *Stats) sub(o Stats) {
	st.Compactions -= o.Compactions
	st.SpecialCompactions -= o.SpecialCompactions
	st.Growths -= o.Growths
	st.Merges -= o.Merges
	st.CoinFlips -= o.CoinFlips
}

// Merge absorbs other into s (Algorithm 3, Appendix D). After the call, s
// summarises the concatenation of both inputs with the guarantees of
// Theorem 3; other is left untouched (it is deep-copied internally when its
// buffers must be modified).
//
// The steps follow the paper:
//  1. the taller sketch is the target, the shorter the source;
//  2. if the combined n exceeds the target's bound N, the target receives a
//     special compaction at every level, N squares, and the geometry (k, B)
//     is recomputed — repeated until N ≥ n (a single squaring in all but
//     pathological bound configurations);
//  3. if the source's bound is behind the new N, the source receives a
//     special compaction too (under its own geometry);
//  4. schedule states combine with bitwise OR (Facts 18/19), buffers
//     concatenate level-wise;
//  5. a bottom-up sweep compacts every level holding ≥ B items.
//
// Merging sketches with incompatible configurations (different accuracy
// mode, schedule, constant regime, or rank-accuracy side) or different
// orders (see sameOrder) is an error, and leaves s unchanged.
func (s *Sketch[T]) Merge(other *Sketch[T]) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other == s {
		return errors.New("core: cannot merge a sketch into itself")
	}
	if err := s.cfg.Compatible(&other.cfg); err != nil {
		return err
	}
	if !sameOrder(s.kern, other.kern) {
		return errors.New("core: merge of sketches under different orders")
	}
	s.invalidate()
	if s.n == 0 {
		// Adopt a deep copy of other, keeping s's seed identity and Work.
		c := other.Clone()
		c.rnd = s.rnd
		c.cfg.Seed = s.cfg.Seed
		c.work = s.work
		*s = *c
		return nil
	}
	w := s.workspace() // every step runs on s's Work, which s keeps

	// Historical counters of both inputs; deltas accumulated during the
	// merge are reconciled at the end so nothing is double-counted.
	sStats, oStats := s.stats, other.stats

	// Choose target m (taller) and source src (shorter). m is always safe
	// to mutate; the final state is copied into s.
	var m, src *Sketch[T]
	if len(other.levels) > len(s.levels) {
		m = other.Clone()
		// The merged sketch continues s's random stream so that a caller
		// holding s sees deterministic behaviour under a fixed seed.
		m.rnd = s.rnd
		m.cfg.Seed = s.cfg.Seed
		m.work = w
		src = s
	} else {
		m = s
		src = other
	}
	mBase, srcBase := m.stats, src.stats
	total := s.n + other.n

	// Step 2: raise the target's bound to cover the combined length.
	if m.bound < total {
		for h := 0; h < len(m.levels)-1; h++ {
			m.specialCompactLevel(h)
		}
		for m.bound < total && m.bound < maxBound {
			m.bound = squareBound(m.bound)
		}
		m.geom = m.cfg.geometryFor(m.bound)
		m.stats.Growths++
	}

	// Step 3: if the source's geometry lags the target's, special-compact
	// the source — on the Work's reusable staging sketch rather than a
	// fresh deep copy, so repeated merges into a long-lived target stop
	// allocating for this step once the stage's buffers have grown. The
	// stage borrows m's random source for the special compactions (exactly
	// as the old private clone did), keeping the coin stream bit-identical.
	if src.bound < m.bound {
		needsSpecial := false
		for h := 0; h < len(src.levels)-1; h++ {
			if len(src.levels[h].buf) > src.geom.b/2 {
				needsSpecial = true
				break
			}
		}
		if needsSpecial {
			if w.stage == nil {
				w.stage = &Sketch[T]{work: w}
			}
			stage := w.stage
			stage.CopyFrom(src)
			stageRnd := stage.rnd // keep the stage's own source for reuse
			stage.rnd = m.rnd
			for h := 0; h < len(stage.levels)-1; h++ {
				stage.specialCompactLevel(h)
			}
			stage.rnd = stageRnd
			src = stage
		}
	}

	// Step 4: combine states and merge buffers level by level. Both sides
	// hold sorted buffers (source tails are sorted on a copy, the target's
	// are settled in place), so each level is a galloping O(b) merge and the
	// sorted-compactor invariant survives the merge — the bottom-up sweep in
	// step 5 never has to re-sort.
	for h := range src.levels {
		if h >= len(m.levels) {
			m.resizeLevels(h + 1)
		}
		m.settleLevel(h)
		add := src.levels[h].buf
		if sp := src.levels[h].sorted; sp < len(add) {
			// The source is not ours to mutate: settle an unsorted tail on
			// the Work's reusable scratch buffers (only level 0 carries a
			// tail in practice, and the scratch is free here — settleLevel
			// above is done with it), so settling allocates nothing once
			// the buffers have grown.
			w.scratch = append(w.scratch[:0], add[sp:]...)
			m.sortInternal(w.scratch)
			w.mergeBuf = append(w.mergeBuf[:0], add[:sp]...)
			w.mergeBuf = slices.Grow(w.mergeBuf, len(w.scratch))
			w.mergeBuf = m.mergeInternalInto(w.mergeBuf, w.scratch)
			add = w.mergeBuf
		}
		// Grow the target level for the concatenation before merging, as
		// the merge kernel needs (add lives in src's levels or the Work's
		// mergeBuf, never in m's level, so the operands cannot overlap).
		dst := &m.levels[h]
		dst.buf = slices.Grow(dst.buf, len(add))
		dst.state = schedule.Combine(dst.state, src.levels[h].state)
		dst.buf = m.mergeInternalInto(dst.buf, add)
		dst.sorted = len(dst.buf)
		m.retained += len(add)
		if len(dst.buf) > m.stats.MaxBufferLen {
			m.stats.MaxBufferLen = len(dst.buf)
		}
	}
	m.n = total

	if src.hasMinMax {
		if !m.hasMinMax {
			m.min, m.max, m.hasMinMax = src.min, src.max, true
		} else {
			if m.kern.less(src.min, m.min) {
				m.min = src.min
			}
			if m.kern.less(m.max, src.max) {
				m.max = src.max
			}
		}
	}

	// Step 5: bottom-up sweep; compacting level h can push level h+1 over
	// capacity, which the loop reaches next.
	m.compactCascade(0)

	// Reconcile counters: historical(s) + historical(other) + work done
	// during this merge on m and on the source copy.
	merged := sStats
	merged.add(oStats)
	mDelta := m.stats
	mDelta.sub(mBase)
	srcDelta := src.stats
	srcDelta.sub(srcBase)
	merged.add(mDelta)
	merged.add(srcDelta)
	merged.Merges++
	if m.stats.MaxBufferLen > merged.MaxBufferLen {
		merged.MaxBufferLen = m.stats.MaxBufferLen
	}
	m.stats = merged

	if m != s {
		*s = *m
	}
	return nil
}
