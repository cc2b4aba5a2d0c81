package core

import (
	"errors"
	"fmt"
	"slices"

	"req/internal/rng"
	"req/internal/schedule"
)

// LevelSnapshot is the portable state of one relative-compactor. Items is
// owned by the snapshot holder (never aliased with live sketch storage);
// captures and decoders lay the per-level slices out as windows of one
// contiguous allocation.
type LevelSnapshot[T any] struct {
	State uint64
	Items []T
}

// Snapshot is the complete portable state of a sketch, sufficient to resume
// it bit-for-bit (including the random stream). The root req package uses it
// to implement binary serialization for concrete item types. Derived state
// is deliberately not captured: the reusable scratch storage (a Work) is
// rebuilt lazily by the first compaction or query on the restored sketch.
type Snapshot[T any] struct {
	Config    Config
	N         uint64
	Bound     uint64
	Min, Max  T
	HasMinMax bool
	RNG       rng.State
	Levels    []LevelSnapshot[T]
	Stats     Stats
}

// Snapshot captures the sketch state. Item slices are copies (the caller
// may retain or mutate them freely); they are windows of one contiguous
// allocation, copied level by level from the sketch's buffers — one
// allocation and O(levels) memcpys regardless of the level count.
func (s *Sketch[T]) Snapshot() Snapshot[T] {
	snap := Snapshot[T]{
		Config:    s.cfg,
		N:         s.n,
		Bound:     s.bound,
		Min:       s.min,
		Max:       s.max,
		HasMinMax: s.hasMinMax,
		RNG:       s.rnd.State(),
		Levels:    make([]LevelSnapshot[T], len(s.levels)),
		Stats:     s.stats,
	}
	slab := make([]T, s.retained)
	off := 0
	for h := range s.levels {
		n := copy(slab[off:], s.levels[h].buf)
		snap.Levels[h] = LevelSnapshot[T]{
			State: uint64(s.levels[h].state),
			Items: slab[off : off+n : off+n],
		}
		off += n
	}
	return snap
}

// maxRestoreCapacity caps the total level capacity (in items) a decoded
// snapshot's geometry may demand: untrusted headers choose the geometry,
// and a restored sketch's levels grow toward B items each, so the implied
// allocation must be bounded by a constant, not by attacker-supplied
// accuracy parameters.
const maxRestoreCapacity = 1 << 28

// FromSnapshot reconstructs a sketch from a snapshot, validating structural
// consistency (weight conservation, bound sanity, buffer sizes). The less
// function must match the one the snapshot was taken under; this cannot be
// checked and is the caller's contract.
func FromSnapshot[T any](less func(a, b T) bool, snap Snapshot[T]) (*Sketch[T], error) {
	if less == nil {
		return nil, errors.New("core: nil less function")
	}
	cfg := snap.Config
	if err := cfg.Normalize(); err != nil {
		return nil, fmt.Errorf("core: snapshot config: %w", err)
	}
	if snap.Bound < snap.N {
		return nil, fmt.Errorf("core: snapshot bound %d < n %d", snap.Bound, snap.N)
	}
	if snap.Bound == 0 || snap.Bound&(snap.Bound-1) != 0 {
		return nil, fmt.Errorf("core: snapshot bound %d is not a power of two", snap.Bound)
	}
	if len(snap.Levels) == 0 {
		return nil, errors.New("core: snapshot has no levels")
	}
	if len(snap.Levels) > 64 {
		return nil, fmt.Errorf("core: snapshot has %d levels", len(snap.Levels))
	}
	s := &Sketch[T]{
		kern:      kernelFor(less),
		cfg:       cfg,
		rnd:       rng.New(cfg.Seed),
		n:         snap.N,
		bound:     snap.Bound,
		geom:      cfg.geometryFor(snap.Bound),
		min:       snap.Min,
		max:       snap.Max,
		hasMinMax: snap.HasMinMax,
		stats:     snap.Stats,
	}
	s.rnd.Restore(snap.RNG)
	// The restored levels grow toward levels × geom.b items, and geom.b is
	// derived from header fields an attacker controls (k̂, K, ε, bound) —
	// not from the payload. Cap the total before restoring: a tiny hostile
	// record must not be able to set up a sketch whose next updates demand
	// multi-gigabyte buffers (or overflow the int arithmetic into a make
	// panic). Honest sketches sit far below the cap — it admits ~2 GiB of
	// 8-byte items, beyond ε = 10⁻⁵ at 2⁶² streams.
	if s.geom.b <= 0 ||
		int64(s.geom.b)*int64(len(snap.Levels)) > maxRestoreCapacity {
		return nil, fmt.Errorf("core: snapshot geometry demands %d levels × %d capacity, beyond the restore cap", len(snap.Levels), s.geom.b)
	}
	// Validate level sizes before copying any items; each level is then
	// sized by the items it holds.
	var weight uint64
	for h, lv := range snap.Levels {
		if len(lv.Items) >= s.geom.b {
			return nil, fmt.Errorf("core: snapshot level %d holds %d items ≥ capacity %d", h, len(lv.Items), s.geom.b)
		}
		weight += uint64(len(lv.Items)) << uint(h)
	}
	s.levels = make([]compactor[T], len(snap.Levels))
	for h, lv := range snap.Levels {
		c := &s.levels[h]
		c.buf = slices.Clone(lv.Items)
		c.state = schedule.State(lv.State)
		// Re-establish the sorted-compactor invariant: snapshots carry raw
		// buffers, so recover the sorted prefix (the whole buffer for any
		// state written by this implementation; a shorter prefix plus tail
		// for foreign or pre-invariant snapshots is equally valid).
		c.sorted = s.extendSorted(c.buf, 0)
		s.retained += len(lv.Items)
	}
	if weight != snap.N {
		return nil, fmt.Errorf("core: snapshot weight %d != n %d", weight, snap.N)
	}
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: snapshot invalid: %w", err)
	}
	return s, nil
}
