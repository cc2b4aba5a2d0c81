package req

import (
	"math"

	"req/internal/core"
)

// Float64 is a sketch specialised to float64 values, the common case for
// measurements such as latencies. It adds NaN filtering and binary
// serialization on top of Sketch[float64]. Not safe for concurrent use.
type Float64 struct {
	Sketch[float64]
}

// NewFloat64 returns an empty float64 sketch configured by opts. Values
// compare by the usual < order (the canonical core.LessF64, which activates
// the monomorphic kernel layer — see "Hardware kernels" in doc.go).
func NewFloat64(opts ...Option) (*Float64, error) {
	s, err := New(core.LessF64, opts...)
	if err != nil {
		return nil, err
	}
	return &Float64{Sketch: *s}, nil
}

// Update inserts one value. NaN values are ignored (they have no place in
// a total order); ±Inf are accepted and behave as extreme values.
func (s *Float64) Update(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.Sketch.Update(v)
}

// UpdateBatch inserts every value of the slice through the batch ingest
// path, skipping NaNs; see Sketch.UpdateBatch. The slice is copied only if
// it contains a NaN.
func (s *Float64) UpdateBatch(vs []float64) {
	s.Sketch.UpdateBatch(core.FilterNaN(vs))
}

// UpdateWeighted inserts v with the given integer weight; see
// Sketch.UpdateWeighted. NaN values are ignored, as in Update.
func (s *Float64) UpdateWeighted(v float64, weight uint64) error {
	if math.IsNaN(v) {
		return nil
	}
	return s.Sketch.UpdateWeighted(v, weight)
}

// The query surface — the full Reader interface, including the batch APIs
// (RankBatch, NormalizedRankBatch, QuantilesInto, CDFInto, PMFInto), the
// All coreset iterator, and Snapshot (returning *SnapshotFloat64) — is
// inherited from the embedded Sketch unchanged. Like Rank, queries do not
// filter NaN probes — a NaN has no defined rank under <, so callers should
// screen probe sets the way FilterNaN screens ingest.

// Clone returns a deep copy of the sketch; see Sketch.Clone.
func (s *Float64) Clone() *Float64 {
	return &Float64{Sketch: *s.Sketch.Clone()}
}

// Merge absorbs other into s; see Sketch.Merge.
func (s *Float64) Merge(other *Float64) error {
	if other == nil {
		return nil
	}
	return s.Sketch.Merge(&other.Sketch)
}
