package core

import "req/internal/vec"

// Work is the transient state of the sketches that borrow it, so that a
// sketch holds only its levels: a standalone sketch allocates its own on
// first use, and a container lends one Work to many sketches (a registry
// shard to every key and ring slot it holds; see Borrow) and uses it only
// under the lock that guards them. Clone, CopyFrom, Merge and Reset never
// move a Work from one sketch to another. Every buffer is grow-only, so
// steady-state writes and reads allocate nothing.
type Work[T any] struct {
	// scratch holds a settle's copy of a level's unsorted tail
	// (settleLevel) and a compaction's emission (emitHalf); mergeBuf
	// stages settled copies of merge-source levels (Merge step 4).
	scratch, mergeBuf []T
	// stage is the reusable deep-copy target of a merge source that needs
	// a special compaction (Merge step 3); it borrows this Work.
	stage *Sketch[T]
	// curs is the k-way merge's cursor array: a slice handed through the
	// kernel table's indirect call escapes, so it is kept and reused.
	curs []vec.KWayCursor[T]
	// union selects live quantile reads; a read leaves it empty.
	union Union[T]
	// view is the scratch the batch reads and All merge into (sortedView),
	// valid until the next build.
	view View[T]
}

// scrub zeroes every item w keeps past an operation — the compaction and
// settle scratch, the merge staging, the view and the stage's levels — so
// that a reset sketch's old items do not stay reachable through its Work.
func (w *Work[T]) scrub() {
	clear(w.scratch[:cap(w.scratch)])
	clear(w.mergeBuf[:cap(w.mergeBuf)])
	clear(w.view.items)
	var zero T
	w.view.min, w.view.max = zero, zero
	if st := w.stage; st != nil {
		st.resizeLevels(0)
		st.min, st.max = zero, zero
	}
}

// Union returns w's union, for a live read over several sketches that
// borrow w (a windowed key's ring slots); the caller resets it after.
func (w *Work[T]) Union() *Union[T] { return &w.union }
