package core

import "req/internal/vec"

// Work is the scratch of merging a sketch's levels into one sorted run:
// the settle scratch of a level's unsorted tail, the k-way merge's
// cursors and a view to merge into. A container that merges many
// sketches owns one and lends it to each (a registry keeps one per shard,
// beside the shard's union), so a merge leaves no view, cursor array or
// settle scratch on the sketch it reads; SortedView runs the same merge
// (mergeView) on the sketch's own scratch. Every buffer is grow-only, so
// steady-state merges allocate nothing. A Work is not safe for concurrent
// use.
type Work[T any] struct {
	tail []T
	curs []vec.KWayCursor[T]
	view View[T]
}

// View merges s's levels into w's view and returns it, leaving no cached
// view on s. The view is valid until w merges again or s is written.
func (w *Work[T]) View(s *Sketch[T]) *View[T] {
	return s.mergeView(&w.tail, &w.curs, &w.view)
}

// Freeze merges s's levels straight into two arrays of exactly its
// retained size and returns the View that owns them: FreezeOwned's
// durable copy, without building a view on s and copying it.
func (w *Work[T]) Freeze(s *Sketch[T]) View[T] {
	var v View[T]
	s.mergeView(&w.tail, &w.curs, &v)
	return v
}
