package req

import "req/internal/core"

// Uint64 is a sketch specialised to uint64 values — timestamps, byte
// counts, identifiers with a meaningful order. Like Float64 it supports
// binary serialization, and inherits the batch ingest path (UpdateBatch)
// and the full Reader query surface — batch APIs (RankBatch,
// NormalizedRankBatch, QuantilesInto, CDFInto, PMFInto), the All coreset
// iterator, and Snapshot (returning *SnapshotUint64) — from the embedded
// Sketch unchanged: uint64 has no NaN to filter on either side. Not safe
// for concurrent use.
type Uint64 struct {
	Sketch[uint64]
}

// NewUint64 returns an empty uint64 sketch configured by opts. Values
// compare by the usual < order (the canonical core.LessU64, which activates
// the monomorphic kernel layer — see "Hardware kernels" in doc.go).
func NewUint64(opts ...Option) (*Uint64, error) {
	s, err := New(core.LessU64, opts...)
	if err != nil {
		return nil, err
	}
	return &Uint64{Sketch: *s}, nil
}

// Clone returns a deep copy of the sketch; see Sketch.Clone.
func (s *Uint64) Clone() *Uint64 {
	return &Uint64{Sketch: *s.Sketch.Clone()}
}

// Merge absorbs other into s; see Sketch.Merge.
func (s *Uint64) Merge(other *Uint64) error {
	if other == nil {
		return nil
	}
	return s.Sketch.Merge(&other.Sketch)
}
