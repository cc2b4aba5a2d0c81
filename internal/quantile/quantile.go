// Package quantile defines the uniform interface the experiment harness
// uses to drive every sketch in this repository — the REQ sketch (in all
// its modes and ablations) and the six baselines — plus adapters
// implementing it.
package quantile

import (
	"math"

	"req/internal/bqdigest"
	"req/internal/core"
	"req/internal/ddsketch"
	"req/internal/exact"
	"req/internal/expsampler"
	"req/internal/gk"
	"req/internal/kll"
	"req/internal/tdigest"
)

// Sketch is the minimal surface the harness needs from every algorithm.
type Sketch interface {
	// Name identifies the sketch in tables and plots.
	Name() string
	// Update inserts one value.
	Update(v float64)
	// Rank returns the estimated inclusive rank of v.
	Rank(v float64) uint64
	// N returns the number of values summarised.
	N() uint64
	// ItemsRetained returns the storage footprint in items/entries.
	ItemsRetained() int
}

// Quantiler is implemented by sketches that answer quantile queries.
type Quantiler interface {
	Quantile(phi float64) (float64, error)
}

// BatchUpdater is implemented by sketches with a native batch ingest path.
// The harness feeds whole trial streams through it when available; the
// semantics must match calling Update once per value.
type BatchUpdater interface {
	UpdateBatch(vs []float64)
}

// Ingest feeds vs into sk, through the batch path when the sketch has one.
func Ingest(sk Sketch, vs []float64) {
	if b, ok := sk.(BatchUpdater); ok {
		b.UpdateBatch(vs)
		return
	}
	for _, v := range vs {
		sk.Update(v)
	}
}

// Factory builds fresh sketch instances for repeated trials.
type Factory struct {
	// Name labels the family (it also names each instance).
	Name string
	// New returns an empty sketch seeded as given.
	New func(seed uint64) Sketch
}

// --- REQ adapter -----------------------------------------------------------

// REQ wraps the core REQ sketch. Built from a core.Config so the harness
// can exercise ablations (naive schedule, deterministic coin, paper
// constants) that the public API does not expose.
type REQ struct {
	s     *core.Sketch[float64]
	label string
}

// NewREQ builds a REQ adapter; label defaults to "req".
func NewREQ(cfg core.Config, label string) (*REQ, error) {
	if label == "" {
		label = "req"
	}
	s, err := core.New(core.LessF64, cfg)
	if err != nil {
		return nil, err
	}
	return &REQ{s: s, label: label}, nil
}

// Name implements Sketch.
func (r *REQ) Name() string { return r.label }

// Update implements Sketch. NaN is dropped by the LessF64 kernel table.
func (r *REQ) Update(v float64) { r.s.Update(v) }

// UpdateBatch implements BatchUpdater via the core batch ingest path.
func (r *REQ) UpdateBatch(vs []float64) { r.s.UpdateBatch(vs) }

// Rank implements Sketch.
func (r *REQ) Rank(v float64) uint64 { return r.s.Rank(v) }

// N implements Sketch.
func (r *REQ) N() uint64 { return r.s.Count() }

// ItemsRetained implements Sketch.
func (r *REQ) ItemsRetained() int { return r.s.ItemsRetained() }

// Quantile implements Quantiler.
func (r *REQ) Quantile(phi float64) (float64, error) { return r.s.Quantile(phi) }

// Core exposes the wrapped sketch for instrumentation and merging.
func (r *REQ) Core() *core.Sketch[float64] { return r.s }

// REQFactory returns a Factory for the given config and label.
func REQFactory(cfg core.Config, label string) Factory {
	return Factory{Name: labelOr(label, "req"), New: func(seed uint64) Sketch {
		c := cfg
		c.Seed = seed
		r, err := NewREQ(c, label)
		if err != nil {
			panic(err) // factories are built from vetted configs
		}
		return r
	}}
}

// --- KLL adapter ------------------------------------------------------------

// KLL wraps the additive KLL baseline.
type KLL struct{ s *kll.Sketch }

// NewKLL builds a KLL adapter with accuracy parameter k.
func NewKLL(k int, seed uint64) *KLL { return &KLL{s: kll.New(k, seed)} }

// Name implements Sketch.
func (a *KLL) Name() string { return "kll" }

// Update implements Sketch.
func (a *KLL) Update(v float64) { a.s.Update(v) }

// Rank implements Sketch.
func (a *KLL) Rank(v float64) uint64 { return a.s.Rank(v) }

// N implements Sketch.
func (a *KLL) N() uint64 { return a.s.N() }

// ItemsRetained implements Sketch.
func (a *KLL) ItemsRetained() int { return a.s.ItemsRetained() }

// Quantile implements Quantiler.
func (a *KLL) Quantile(phi float64) (float64, error) { return a.s.Quantile(phi) }

// KLLFactory sizes KLL for additive error eps.
func KLLFactory(eps float64) Factory {
	k := kll.KForEpsilon(eps)
	return Factory{Name: "kll", New: func(seed uint64) Sketch { return NewKLL(k, seed) }}
}

// --- GK adapter --------------------------------------------------------------

// GK wraps the deterministic additive Greenwald–Khanna baseline.
type GK struct{ s *gk.Sketch }

// NewGK builds a GK adapter with additive error eps.
func NewGK(eps float64) (*GK, error) {
	s, err := gk.New(eps)
	if err != nil {
		return nil, err
	}
	return &GK{s: s}, nil
}

// Name implements Sketch.
func (a *GK) Name() string { return "gk" }

// Update implements Sketch.
func (a *GK) Update(v float64) { a.s.Update(v) }

// Rank implements Sketch.
func (a *GK) Rank(v float64) uint64 { return a.s.Rank(v) }

// N implements Sketch.
func (a *GK) N() uint64 { return a.s.N() }

// ItemsRetained implements Sketch.
func (a *GK) ItemsRetained() int { return a.s.ItemsRetained() }

// Quantile implements Quantiler.
func (a *GK) Quantile(phi float64) (float64, error) { return a.s.Quantile(phi) }

// GKFactory sizes GK for additive error eps (GK is deterministic; the seed
// is ignored).
func GKFactory(eps float64) Factory {
	return Factory{Name: "gk", New: func(uint64) Sketch {
		a, err := NewGK(eps)
		if err != nil {
			panic(err)
		}
		return a
	}}
}

// --- t-digest adapter ---------------------------------------------------------

// TDigest wraps the heuristic t-digest baseline.
type TDigest struct{ s *tdigest.Sketch }

// NewTDigest builds a t-digest adapter with the given compression.
func NewTDigest(compression float64) *TDigest {
	return &TDigest{s: tdigest.New(compression)}
}

// Name implements Sketch.
func (a *TDigest) Name() string { return "tdigest" }

// Update implements Sketch.
func (a *TDigest) Update(v float64) { a.s.Update(v) }

// Rank implements Sketch.
func (a *TDigest) Rank(v float64) uint64 { return a.s.Rank(v) }

// N implements Sketch.
func (a *TDigest) N() uint64 { return a.s.N() }

// ItemsRetained implements Sketch.
func (a *TDigest) ItemsRetained() int { return a.s.ItemsRetained() }

// Quantile implements Quantiler.
func (a *TDigest) Quantile(phi float64) (float64, error) { return a.s.Quantile(phi) }

// TDigestFactory sizes the digest at compression 1/eps (the t-digest has no
// formal guarantee; this matches its customary sizing). The t-digest merge
// pass is deterministic, so the seed is ignored.
func TDigestFactory(eps float64) Factory {
	comp := 1 / eps
	return Factory{Name: "tdigest", New: func(uint64) Sketch { return NewTDigest(comp) }}
}

// --- DDSketch adapter ----------------------------------------------------------

// DD wraps the value-relative-error DDSketch baseline.
type DD struct{ s *ddsketch.Sketch }

// NewDD builds a DDSketch adapter with value accuracy alpha.
func NewDD(alpha float64) (*DD, error) {
	s, err := ddsketch.New(alpha)
	if err != nil {
		return nil, err
	}
	return &DD{s: s}, nil
}

// Name implements Sketch.
func (a *DD) Name() string { return "ddsketch" }

// Update implements Sketch. DDSketch accepts only non-negative finite
// values; others are dropped (the harness feeds it positive workloads).
func (a *DD) Update(v float64) { _ = a.s.Update(v) }

// Rank implements Sketch.
func (a *DD) Rank(v float64) uint64 { return a.s.Rank(v) }

// N implements Sketch.
func (a *DD) N() uint64 { return a.s.N() }

// ItemsRetained implements Sketch.
func (a *DD) ItemsRetained() int { return a.s.ItemsRetained() }

// Quantile implements Quantiler.
func (a *DD) Quantile(phi float64) (float64, error) { return a.s.Quantile(phi) }

// DDFactory sizes DDSketch at alpha = eps (deterministic; seed ignored).
func DDFactory(eps float64) Factory {
	return Factory{Name: "ddsketch", New: func(uint64) Sketch {
		a, err := NewDD(eps)
		if err != nil {
			panic(err)
		}
		return a
	}}
}

// --- Exponential sampler adapter -------------------------------------------------

// Sampler wraps the bottom-k multi-level sampling baseline.
type Sampler struct{ s *expsampler.Sketch }

// NewSampler builds a sampler adapter targeting relative error eps.
func NewSampler(eps float64, seed uint64) (*Sampler, error) {
	s, err := expsampler.New(eps, seed)
	if err != nil {
		return nil, err
	}
	return &Sampler{s: s}, nil
}

// Name implements Sketch.
func (a *Sampler) Name() string { return "expsampler" }

// Update implements Sketch.
func (a *Sampler) Update(v float64) { a.s.Update(v) }

// Rank implements Sketch.
func (a *Sampler) Rank(v float64) uint64 { return a.s.Rank(v) }

// N implements Sketch.
func (a *Sampler) N() uint64 { return a.s.N() }

// ItemsRetained implements Sketch.
func (a *Sampler) ItemsRetained() int { return a.s.ItemsRetained() }

// Quantile implements Quantiler.
func (a *Sampler) Quantile(phi float64) (float64, error) { return a.s.Quantile(phi) }

// SamplerFactory targets relative error eps.
func SamplerFactory(eps float64) Factory {
	return Factory{Name: "expsampler", New: func(seed uint64) Sketch {
		a, err := NewSampler(eps, seed)
		if err != nil {
			panic(err)
		}
		return a
	}}
}

// --- Biased q-digest adapter ------------------------------------------------------

// BQ wraps the fixed-universe biased q-digest baseline, quantising float64
// values onto a 2^bits grid over [Lo, Hi]. The quantisation is the honest
// cost of this algorithm: it needs the universe in advance.
type BQ struct {
	s      *bqdigest.Sketch
	lo, hi float64
}

// NewBQ builds a biased q-digest adapter over [lo, hi] with 2^bits cells.
func NewBQ(eps float64, bits uint, lo, hi float64) (*BQ, error) {
	s, err := bqdigest.New(eps, bits)
	if err != nil {
		return nil, err
	}
	return &BQ{s: s, lo: lo, hi: hi}, nil
}

// Name implements Sketch.
func (a *BQ) Name() string { return "bqdigest" }

// Update implements Sketch.
func (a *BQ) Update(v float64) {
	if math.IsNaN(v) {
		return
	}
	_ = a.s.Update(a.s.Quantize(v, a.lo, a.hi))
}

// Rank implements Sketch.
func (a *BQ) Rank(v float64) uint64 { return a.s.Rank(a.s.Quantize(v, a.lo, a.hi)) }

// N implements Sketch.
func (a *BQ) N() uint64 { return a.s.N() }

// ItemsRetained implements Sketch.
func (a *BQ) ItemsRetained() int { a.s.Compress(); return a.s.ItemsRetained() }

// BQFactory targets relative error eps over the value range [lo, hi]
// (deterministic; seed ignored).
func BQFactory(eps float64, bits uint, lo, hi float64) Factory {
	return Factory{Name: "bqdigest", New: func(uint64) Sketch {
		a, err := NewBQ(eps, bits, lo, hi)
		if err != nil {
			panic(err)
		}
		return a
	}}
}

// --- Exact oracle adapter ----------------------------------------------------------

// Exact wraps the ground-truth oracle behind the same interface, so the
// harness can treat truth and estimates uniformly.
type Exact struct{ o *exact.Oracle }

// NewExact builds an exact adapter.
func NewExact(sizeHint int) *Exact { return &Exact{o: exact.New(sizeHint)} }

// Name implements Sketch.
func (a *Exact) Name() string { return "exact" }

// Update implements Sketch.
func (a *Exact) Update(v float64) { a.o.Update(v) }

// Rank implements Sketch.
func (a *Exact) Rank(v float64) uint64 { return a.o.Rank(v) }

// N implements Sketch.
func (a *Exact) N() uint64 { return a.o.N() }

// ItemsRetained implements Sketch.
func (a *Exact) ItemsRetained() int { return int(a.o.N()) }

// Quantile implements Quantiler.
func (a *Exact) Quantile(phi float64) (float64, error) { return a.o.Quantile(phi) }

// Oracle exposes the wrapped oracle.
func (a *Exact) Oracle() *exact.Oracle { return a.o }

func labelOr(label, def string) string {
	if label == "" {
		return def
	}
	return label
}
