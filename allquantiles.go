package req

import (
	"fmt"
	"math"
)

// AllQuantiles returns the option set that upgrades the per-item guarantee
// of Theorem 1 to the simultaneous all-quantiles guarantee of Corollary 1:
// with probability 1 − delta, EVERY rank query (hence every quantile) is
// within relative error eps at once.
//
// Per the corollary's proof, this runs the sketch at ε′ = ε/3 and
// δ′ = δ·ε / (3·log₂(ε·n)) — a union bound over the Θ(ε⁻¹·log(εn)) items of
// an offline-optimal relative-error cover of the stream. nHint is the
// anticipated stream length used to size the union bound; overshooting it
// is safe (the bound only tightens), undershooting weakens the simultaneous
// guarantee back toward per-item. An eps outside (0, 1) or a delta outside
// (0, 0.5] yields an option that fails the constructor.
//
//	s, _ := req.NewFloat64(req.AllQuantiles(0.01, 0.05, 1e9)...)
func AllQuantiles(eps, delta float64, nHint uint64) []Option {
	if err := validateAllQuantilesArgs(eps, delta); err != nil {
		return []Option{func(*settings) error { return err }}
	}
	epsPrime := eps / 3
	// Cover size Θ(ε⁻¹·log₂(εn)); the constant 1 suffices because the
	// cover of Appendix A stores ℓ = ε⁻¹ items per doubling of rank.
	logTerm := math.Log2(math.Max(2, eps*float64(nHint)))
	coverSize := math.Max(1, logTerm/epsPrime)
	deltaPrime := delta / coverSize
	if deltaPrime <= 0 || math.IsNaN(deltaPrime) {
		deltaPrime = 1e-16
	}
	// Delta only changes the space constant; clamp it to the supported
	// range rather than erroring on extreme cover sizes.
	if deltaPrime < 1e-300 {
		deltaPrime = 1e-300
	}
	return []Option{WithEpsilon(epsPrime), WithDelta(deltaPrime)}
}

// RankBounds returns a confidence interval for the true rank R of y
// derived from the sketch's ε and the estimate R̂ = Rank(y). Under the
// default low-rank accuracy the guarantee is |R̂ − R| ≤ ε·R, so the interval
// is [R̂/(1+ε), R̂/(1−ε)]; under WithHighRankAccuracy it is
// |R̂ − R| ≤ ε·(n − R), so the interval is [(R̂ − ε·n)/(1−ε),
// (R̂ + ε·n)/(1+ε)]. Each end is clamped to [0, n]. The interval covers
// the true rank with probability 1 − δ (per queried item; combine with
// AllQuantiles for simultaneous coverage). A WithK sketch is sized by k,
// not ε, yet reports the default ε (0.01) here, as Epsilon does.
func (s *Sketch[T]) RankBounds(y T) (lo, hi uint64) {
	est, n := float64(s.Rank(y)), float64(s.Count())
	cfg := s.core.Config()
	eps := cfg.Eps
	l, h := est/(1+eps), est/(1-eps)
	if cfg.HRA {
		l, h = (est-eps*n)/(1-eps), (est+eps*n)/(1+eps)
	}
	lo = uint64(math.Max(0, math.Floor(l)))
	hi = uint64(math.Min(n, math.Ceil(h)))
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Epsilon returns the sketch's configured relative-error target. A WithK
// sketch is sized by k, not ε, and reports the default ε (0.01), which did
// not size it.
func (s *Sketch[T]) Epsilon() float64 { return s.core.Config().Eps }

// Delta returns the sketch's configured failure probability.
func (s *Sketch[T]) Delta() float64 { return s.core.Config().Delta }

// validateAllQuantilesArgs reports why AllQuantiles cannot take eps and
// delta, or nil: the ε′ and δ′ it derives from them would pass the
// constructor's checks even where the arguments are out of range.
func validateAllQuantilesArgs(eps, delta float64) error {
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("req: all-quantiles epsilon %v out of (0, 1)", eps)
	}
	if !(delta > 0 && delta <= 0.5) {
		return fmt.Errorf("req: all-quantiles delta %v out of (0, 0.5]", delta)
	}
	return nil
}
