// Package core implements the relative-error quantiles sketch of Cormode,
// Karnin, Liberty, Thaler and Veselý, "Relative Error Streaming Quantiles"
// (PODS 2021, arXiv:2004.01668). The sketch maintains, in one pass over a
// stream of items from a totally ordered universe, a weighted coreset from
// which the rank of any item y can be estimated with multiplicative error:
//
//	|R̂(y) − R(y)| ≤ ε·R(y)   with probability 1 − δ,
//
// storing O(ε⁻¹·log^1.5(εn)·√log(1/δ)) items (Theorem 1). The sketch is
// fully mergeable (Theorem 3, Appendix D) and needs no advance knowledge of
// the stream length (Section 5).
//
// The package is deliberately self-contained and allocation-conscious; the
// user-facing API lives in the repository root package req.
package core

import (
	"errors"
	"fmt"
	"math"

	"req/internal/schedule"
)

// Mode selects the rule used to derive the section size k from the accuracy
// parameters and the current stream-length bound N.
type Mode uint8

const (
	// ModeMergeable derives k per Appendix D, equations (16) and (26):
	// k(N) ∝ k̂/√log₂(N/k̂) with k̂ = ε⁻¹·√log₂(1/δ). The section size
	// shrinks (and the buffer grows) as N squares, which yields the
	// Theorem 1 space bound O(ε⁻¹·log^1.5(εn)·√log(1/δ)) and supports
	// arbitrary merging. This is the default mode.
	ModeMergeable Mode = iota

	// ModeTheorem2 derives a constant k per Appendix C, equation (15):
	// k ∝ ε⁻¹·log₂log₂(1/δ). Space is O(ε⁻¹·log²(εn)·log log(1/δ)),
	// preferable for extremely small δ, and with δ ≤ 2^(-n) the error
	// guarantee holds for every random choice, yielding the deterministic
	// O(ε⁻¹·log³(εn)) bound the paper derives from Theorem 17.
	ModeTheorem2

	// ModeFixedK uses a caller-supplied constant section size k, like the
	// production Apache DataSketches REQ sketch. Space grows as
	// O(k·log(n/k)·log n); the error decreases as k grows. This is the
	// practical mode for users who think in terms of sketch size rather
	// than (ε, δ).
	ModeFixedK
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeMergeable:
		return "mergeable"
	case ModeTheorem2:
		return "theorem2"
	case ModeFixedK:
		return "fixedk"
	default:
		return "unknown"
	}
}

// Default accuracy parameters used when the caller specifies nothing.
const (
	DefaultEpsilon = 0.01
	DefaultDelta   = 0.01
)

// Config collects every knob of the sketch. The zero value is not valid;
// call Normalize (or construct through the root req package, which does).
type Config struct {
	// Mode selects the k-derivation rule; see the Mode constants.
	Mode Mode

	// Eps is the multiplicative error target ε ∈ (0, 1).
	Eps float64

	// Delta is the per-item failure probability δ ∈ (0, 0.5].
	Delta float64

	// KHat overrides the accuracy driver k̂ of ModeMergeable. When zero it
	// is derived from Eps and Delta per equation (26): k̂ = ε⁻¹·√log₂(1/δ).
	KHat float64

	// K is the fixed section size for ModeFixedK. Must be even and ≥ 4.
	K int

	// PaperConstants, when true, uses the exact constants of equations
	// (15), (16) and N₀ = 2⁸·k̂ from Appendix D. These constants are chosen
	// for proof convenience and oversize the sketch considerably; the
	// default uses small constants with identical asymptotics.
	PaperConstants bool

	// Schedule selects the compaction schedule. schedule.Exponential is
	// the paper's algorithm; schedule.Naive (always compact half the
	// buffer) is the ablation discussed in Section 2.1.
	Schedule schedule.Kind

	// DetCoin, when true, replaces the fair coin of each compaction with
	// the deterministic choice "always keep even-indexed items". This is
	// an ablation: Observation 4's zero-mean error argument fails and the
	// estimate becomes biased. Used by experiment E12.
	DetCoin bool

	// HRA (high-rank accuracy) reverses the internal ordering so that the
	// relative-error guarantee applies to n − R(y) rather than R(y), i.e.,
	// to the high quantiles (p99, p99.9, ...). Rank and quantile queries
	// still use the caller's order. See Section 1 of the paper.
	HRA bool

	// Seed seeds the sketch's private random source.
	Seed uint64

	// N0 overrides the initial stream-length bound. Zero means automatic:
	// the smallest power of two admitting the initial geometry.
	N0 uint64
}

// Accuracy-parameter sanity caps. These bound the buffer geometry a config
// can demand: decoders hand Normalize attacker-controlled headers, and an
// unchecked k̂ or K flows straight into the capacity of the level buffers — a
// 100-byte record must not be able to request a multi-gigabyte (or, via
// float→int overflow, negative-length) allocation. The caps are far beyond
// any honest configuration: MaxKHat corresponds to ε ≈ 3·10⁻¹² and MaxK is
// 4096× the largest K Apache DataSketches accepts.
const (
	// MaxKHat bounds the mergeable-mode accuracy driver k̂.
	MaxKHat = 1e12
	// MaxK bounds the fixed section size of ModeFixedK.
	MaxK = 1 << 26
	// minEps bounds ε below; smaller values drive k beyond MaxKHat anyway.
	minEps = 1e-12
)

// Normalize validates cfg and fills defaults in place. Validation treats
// the config as untrusted (it may come from a decoded header): non-finite
// floats are rejected explicitly — a NaN ε passes range comparisons, then
// poisons every derived quantity — and the accuracy drivers are capped so
// the implied buffer geometry stays allocatable.
func (c *Config) Normalize() error {
	if c.Eps == 0 {
		c.Eps = DefaultEpsilon
	}
	if c.Delta == 0 {
		c.Delta = DefaultDelta
	}
	if math.IsNaN(c.Eps) || c.Eps < minEps || c.Eps >= 1 {
		return fmt.Errorf("core: epsilon %v out of range [%v, 1)", c.Eps, minEps)
	}
	if math.IsNaN(c.Delta) || c.Delta <= 0 || c.Delta > 0.5 {
		return fmt.Errorf("core: delta %v out of range (0, 0.5]", c.Delta)
	}
	switch c.Mode {
	case ModeMergeable:
		if c.KHat == 0 {
			c.KHat = KHatFor(c.Eps, c.Delta)
		}
		if math.IsNaN(c.KHat) || c.KHat < 0 || c.KHat > MaxKHat {
			return fmt.Errorf("core: k̂ %v out of range [0, %v]", c.KHat, float64(MaxKHat))
		}
		if c.KHat < 2 {
			c.KHat = 2
		}
	case ModeTheorem2:
		// k derived on demand; nothing to precompute.
	case ModeFixedK:
		if c.K < 4 {
			return fmt.Errorf("core: fixed k = %d must be ≥ 4", c.K)
		}
		if c.K > MaxK {
			return fmt.Errorf("core: fixed k = %d exceeds cap %d", c.K, MaxK)
		}
		if c.K%2 != 0 {
			return fmt.Errorf("core: fixed k = %d must be even", c.K)
		}
	default:
		return fmt.Errorf("core: unknown mode %d", c.Mode)
	}
	if c.N0 != 0 && c.N0&(c.N0-1) != 0 {
		return errors.New("core: N0 must be a power of two")
	}
	return nil
}

// KHatFor returns k̂ per equation (26): k̂ = ε⁻¹·√log₂(1/δ).
func KHatFor(eps, delta float64) float64 {
	return math.Sqrt(math.Log2(1/delta)) / eps
}

// geometry is the concrete shape of every relative-compactor for a given
// stream-length bound N: section size k, number of compactible sections
// nsec, and total buffer capacity b = 2·k·nsec (the bottom half, k·nsec
// items, is never compacted by the exponential schedule).
type geometry struct {
	k    int
	nsec int
	b    int
}

// maxBound caps the stream-length bound so that squaring never overflows.
const maxBound = uint64(1) << 62

// geometryFor computes the compactor geometry for bound N under cfg.
func (c *Config) geometryFor(n uint64) geometry {
	if n < 2 {
		n = 2
	}
	var k int
	var extra int // extra sections beyond ceil(log2(N/k))
	switch c.Mode {
	case ModeMergeable:
		// Equation (16): k(N) = 2⁵·⌈k̂/√log₂(N/k̂)⌉ with an extra section
		// in B. The practical constant is 2 (which also keeps k even).
		x := math.Log2(float64(n) / c.KHat)
		if x < 1 {
			x = 1
		}
		mult := 2
		if c.PaperConstants {
			mult = 32
		}
		k = mult * int(math.Ceil(c.KHat/math.Sqrt(x)))
		extra = 1
	case ModeTheorem2:
		// Equation (15): k = 2⁴·⌈ε⁻¹·log₂log₂(1/δ)⌉; practical constant 2.
		ll := math.Log2(math.Log2(1 / c.Delta))
		if ll < 1 {
			ll = 1
		}
		mult := 2
		if c.PaperConstants {
			mult = 16
		}
		k = mult * int(math.Ceil(ll/c.Eps))
	case ModeFixedK:
		k = c.K
	}
	if k < 4 {
		k = 4
	}
	if k%2 != 0 {
		k++
	}
	nsec := int(math.Ceil(math.Log2(float64(n)/float64(k)))) + extra
	if nsec < 2 {
		nsec = 2
	}
	return geometry{k: k, nsec: nsec, b: 2 * k * nsec}
}

// initialBound returns the starting stream-length bound N₀: either the
// configured value or the smallest power of two whose geometry fits twice
// within it (so level 0 can fill before the first growth).
func (c *Config) initialBound() uint64 {
	if c.N0 != 0 {
		return c.N0
	}
	if c.PaperConstants && c.Mode == ModeMergeable {
		// Appendix D: N₀ = ⌈2⁸·k̂⌉ rounded up to a power of two.
		return ceilPow2(uint64(math.Ceil(256 * c.KHat)))
	}
	n := uint64(64)
	for {
		g := c.geometryFor(n)
		if uint64(2*g.b) <= n || n >= maxBound {
			return n
		}
		n <<= 1
	}
}

// squareBound returns min(n², maxBound) without overflow.
func squareBound(n uint64) uint64 {
	if n >= 1<<31 {
		return maxBound
	}
	s := n * n
	if s > maxBound {
		return maxBound
	}
	return s
}

// CeilPow2 rounds n up to the next power of two (n ≥ 1). The root package
// uses it to translate a known stream length into a valid N₀.
func CeilPow2(n uint64) uint64 { return ceilPow2(n) }

// ceilPow2 rounds n up to the next power of two (n ≥ 1).
func ceilPow2(n uint64) uint64 {
	if n <= 1 {
		return 1
	}
	p := uint64(1)
	for p < n && p < maxBound {
		p <<= 1
	}
	return p
}

// Compatible reports whether two configs may be merged: the accuracy driver
// and all semantics-affecting knobs must agree. Seeds may differ.
func (c *Config) Compatible(o *Config) error {
	switch {
	case c.Mode != o.Mode:
		return fmt.Errorf("core: merge of different modes %v and %v", c.Mode, o.Mode)
	case c.Mode == ModeMergeable && c.KHat != o.KHat:
		return fmt.Errorf("core: merge of different k̂ (%v vs %v)", c.KHat, o.KHat)
	case c.Mode == ModeTheorem2 && (c.Eps != o.Eps || c.Delta != o.Delta):
		return fmt.Errorf("core: merge of different (ε, δ): (%v, %v) vs (%v, %v)", c.Eps, c.Delta, o.Eps, o.Delta)
	case c.Mode == ModeFixedK && c.K != o.K:
		return fmt.Errorf("core: merge of different k (%d vs %d)", c.K, o.K)
	case c.PaperConstants != o.PaperConstants:
		return errors.New("core: merge of different constant regimes")
	case c.Schedule != o.Schedule:
		return errors.New("core: merge of different compaction schedules")
	case c.HRA != o.HRA:
		return errors.New("core: merge of HRA sketch with LRA sketch")
	}
	return nil
}
