// Package b mirrors a uint64 sketch, whose level buffers share their
// element type with the cumulative weights of a view, so the slabalias
// analyzer's scratch rule must cover a view's cum as well as its items.
package b

type compactor struct {
	buf []uint64
}

type sketch struct {
	levels []compactor
}

// work mirrors core.Work's view: the items and cumulative weights a
// sketch's levels merge into.
type work struct {
	view struct {
		items []uint64
		cum   []uint64
	}
}

func (s *sketch) badWorkViewCumAlias(w *work) {
	w.view.cum = s.levels[0].buf // want "scratch buffers must never alias a level"
}

func (s *sketch) okWorkViewCumCopy(w *work) {
	// Append-copy moves the weights out of the level; no aliasing.
	w.view.cum = append(w.view.cum[:0], s.levels[0].buf...)
}
