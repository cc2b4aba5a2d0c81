package core

// Contiguous level-store storage engine.
//
// The relative-compactor hierarchy is, at steady state, a small set of
// sorted runs of geometrically increasing weight. Before this engine each
// run lived in its own heap-allocated []T, so Clone/CopyFrom/Merge/serde
// walked O(levels) fragmented objects and every level grew independently.
// levelStore packs every level's buffer into ONE grow-only backing slab:
//
//	slab:  [ level 0 buf | slack ][ level 1 buf | slack ] … [ level H | slack ]
//	win:   {off,cap}₀              {off,cap}₁               {off,cap}_H
//
// Each level owns the window slab[off:off+cap]; its live items occupy the
// prefix (the compactor's buf slice aliases exactly that prefix, with the
// window capacity as the slice capacity, gap-buffer style). Appends and
// compaction emissions therefore write in place inside the slab; growing a
// window is one overlapping copy of the occupied prefixes above it; growing
// the slab is one amortized copy of everything. Clone and CopyFrom become
// one slab allocation (at most) plus a memcpy per level.
//
// The level-0 window is sized by what the level holds, not by B: Init
// reserves one level with an initialWindow-item window, and every append
// path widens a full window through ensure (by half, or to the need)
// before it writes, so a sketch holding a few items — a cold registry key
// — costs a few slots. A level above 0 is added with a B-item window when
// the first compaction below it emits; restore (initWindows) lays out B
// per level.
//
// Discipline (checked by CheckInvariants, invariant 10):
//
//   - windows are laid out in level order, contiguous and non-overlapping:
//     win[h+1].off == win[h].off + win[h].cap, and Σ caps == len(slab);
//   - every compactor's buf aliases its window: &buf[0] == &slab[off] and
//     cap(buf) == win.cap — appends past the window are a bug, prevented by
//     calling ensure before any append that could exceed the capacity;
//   - slack (the region between a window's occupied prefix and its cap) is
//     always zeroed, so pointer-bearing item types never linger after a
//     truncation, shift, or copy;
//   - scratch buffers (Sketch.scratch, Sketch.mergeBuf) never alias the
//     slab — merge primitives rely on their operands not overlapping.
type levelStore[T any] struct {
	slab []T      // backing storage; len(slab) == sum of window caps
	win  []window // one window per level, in level order
}

// window describes one level's reserved region of the slab. The occupied
// length is not stored here: it is the length of the level's buf alias.
type window struct {
	off int // start index in slab
	cap int // reserved capacity, slack included
}

// realias rebuilds every level's buf alias from the window table after the
// slab moved or windows shifted. Each buf keeps its current length; offset
// and capacity come from the window.
//
//req:noalloc
func (st *levelStore[T]) realias(levels []compactor[T]) {
	for i := range levels {
		w := st.win[i]
		levels[i].buf = st.slab[w.off : w.off+len(levels[i].buf) : w.off+w.cap]
	}
}

// grow extends the slab to length need, preserving contents. Reallocation
// doubles so a run of window growths amortizes to O(1) copies per item.
func (st *levelStore[T]) grow(need int) {
	if cap(st.slab) >= need {
		st.slab = st.slab[:need]
		return
	}
	newCap := 2 * cap(st.slab)
	if newCap < need {
		newCap = need
	}
	fresh := make([]T, need, newCap)
	copy(fresh, st.slab)
	st.slab = fresh
}

// addLevel reserves a window of the given capacity at the end of the slab
// and appends an empty compactor addressing it, returning the extended
// levels slice (the slab may have moved, so every buf is re-aliased).
func (st *levelStore[T]) addLevel(levels []compactor[T], capacity int) []compactor[T] {
	off := len(st.slab)
	st.grow(off + capacity)
	st.win = append(st.win, window{off: off, cap: capacity})
	levels = append(levels, compactor[T]{})
	st.realias(levels)
	return levels
}

// ensure grows level h's window to hold at least need items, leaving
// geometric slack (cap × 1.5) so a run of appends amortizes to O(1) moved
// items. The occupied prefix of every higher level shifts right by the
// added slack in one overlapping copy per level (top-down, so nothing is
// clobbered); all slack regions are re-zeroed and every buf re-aliased.
// No-op when the window already fits.
func (st *levelStore[T]) ensure(levels []compactor[T], h, need int) {
	w := st.win[h]
	if w.cap >= need {
		return
	}
	newCap := w.cap + w.cap/2
	if newCap < need {
		newCap = need
	}
	delta := newCap - w.cap
	st.grow(len(st.slab) + delta)
	for i := len(st.win) - 1; i > h; i-- {
		wi := st.win[i]
		n := len(levels[i].buf)
		copy(st.slab[wi.off+delta:wi.off+delta+n], st.slab[wi.off:wi.off+n])
		// Scrub the stale prefix the shift left behind (the first
		// min(n, delta) slots of the old position — the rest was
		// overwritten by the shifted copy or already-zero slack), so
		// pointer-bearing item types never linger in the gaps. The next
		// (lower) level's shift may write into the cleared region, which is
		// why the loop runs top-down: clear first, overwrite after.
		stale := min(n, delta)
		clear(st.slab[wi.off : wi.off+stale])
		st.win[i].off = wi.off + delta
	}
	st.win[h].cap = newCap
	st.realias(levels)
}

// initWindows lays out count equal windows of capacity capEach in a single
// allocation, discarding any previous contents. Used when the full level
// structure is known up front (snapshot restore).
func (st *levelStore[T]) initWindows(count, capEach int) {
	st.slab = make([]T, count*capEach)
	st.win = make([]window, count)
	for i := range st.win {
		st.win[i] = window{off: i * capEach, cap: capEach}
	}
}

// reset returns the store to a single empty level-0 window, keeping the
// slab allocation. All contents are scrubbed so items of the old stream are
// unreachable through the recycled slab.
func (st *levelStore[T]) reset() {
	clear(st.slab)
	st.win = st.win[:1]
	st.slab = st.slab[:st.win[0].cap]
}

// cloneFrom makes st a compact logical copy of src in freshly allocated
// storage: one slab allocation sized to the occupied items (slack dropped,
// matching what a per-level deep copy used to allocate), one memcpy per
// level. The clone's windows regrow slack on demand through ensure.
func (st *levelStore[T]) cloneFrom(src *levelStore[T], srcLevels []compactor[T]) {
	st.win = make([]window, len(src.win))
	total := 0
	for i := range srcLevels {
		c := max(len(srcLevels[i].buf), 1)
		st.win[i] = window{off: total, cap: c}
		total += c
	}
	st.slab = make([]T, total)
	for i := range srcLevels {
		copy(st.slab[st.win[i].off:], srcLevels[i].buf)
	}
}

// copyFrom makes st an exact copy of src, reusing st's slab when its
// capacity suffices. Only occupied prefixes move: when the window layouts
// match (the steady re-stage case — refreshing the same long-lived target
// from the same source), each level is one memcpy plus a clear of the
// shrunk remainder; a layout change scrubs the old occupied regions and
// re-copies under src's layout. Either way the store's zero-slack
// discipline is preserved without touching untouched slack.
func (st *levelStore[T]) copyFrom(src *levelStore[T], dstLevels, srcLevels []compactor[T]) {
	n := len(src.slab)
	if cap(st.slab) < n {
		st.slab = make([]T, n)
		st.win = append(st.win[:0], src.win...)
		for i := range srcLevels {
			copy(st.slab[src.win[i].off:], srcLevels[i].buf)
		}
		return
	}
	sameLayout := len(st.win) == len(src.win) && len(st.slab) == n
	for i := 0; sameLayout && i < len(st.win); i++ {
		sameLayout = st.win[i] == src.win[i]
	}
	if sameLayout {
		for i := range srcLevels {
			w := src.win[i]
			sn := copy(st.slab[w.off:], srcLevels[i].buf)
			if dn := len(dstLevels[i].buf); dn > sn {
				clear(st.slab[w.off+sn : w.off+dn])
			}
		}
		return
	}
	// Layout change: the rest of the backing array is already zero by the
	// store's discipline, so scrubbing the old occupied regions is all the
	// clearing a relayout needs.
	for i := range dstLevels {
		clear(dstLevels[i].buf)
	}
	st.slab = st.slab[:n]
	st.win = append(st.win[:0], src.win...)
	for i := range srcLevels {
		copy(st.slab[src.win[i].off:], srcLevels[i].buf)
	}
}
