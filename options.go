package req

import (
	"fmt"
	"time"

	"req/internal/core"
)

// An Option configures a sketch at construction time.
type Option func(*settings) error

// settings is what a constructor's options build: the core configuration
// every sketch of the container shares, beside the container knobs the
// core engine never reads and that do not affect merge compatibility or
// serialization. The With* options validate each knob as they set it.
type settings struct {
	core.Config
	// shards fixes the shard count of a Sharded sketch or a registry. Zero
	// means automatic (GOMAXPROCS-scaled).
	shards int
	// ttlNanos is a registry's idle time-to-live in nanoseconds. Zero
	// means no TTL.
	ttlNanos int64
	// maxEntries caps a registry's resident key count, split evenly
	// across shards. Zero means unbounded.
	maxEntries int
	// windowSlots and slotNanos shape a WindowedRegistry's ring: the slot
	// count and one slot's duration. Zero means no window.
	windowSlots int
	slotNanos   int64
	// now is a registry's nanosecond clock. Nil means the wall clock.
	now func() int64
}

// WithEpsilon sets the multiplicative error target ε ∈ (0, 1). The default
// is 0.01. Smaller ε means a larger sketch: space grows linearly in 1/ε.
func WithEpsilon(eps float64) Option {
	return func(c *settings) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("req: epsilon %v out of range (0, 1)", eps)
		}
		c.Eps = eps
		return nil
	}
}

// WithDelta sets the per-item failure probability δ ∈ (0, 0.5]. The default
// is 0.01. Space grows with √log(1/δ) (or log log(1/δ) in Theorem-2 mode).
func WithDelta(delta float64) Option {
	return func(c *settings) error {
		if delta <= 0 || delta > 0.5 {
			return fmt.Errorf("req: delta %v out of range (0, 0.5]", delta)
		}
		c.Delta = delta
		return nil
	}
}

// WithK selects the fixed-section-size mode with the given k (even, ≥ 4),
// matching the parameterisation of Apache DataSketches' ReqSketch. Error
// decreases as k grows; space is ≈ 2k·log₂(n/k) items per level. WithK is
// mutually exclusive with WithEpsilon/WithDelta-derived sizing.
func WithK(k int) Option {
	return func(c *settings) error {
		if k < 4 || k%2 != 0 {
			return fmt.Errorf("req: k = %d must be an even integer ≥ 4", k)
		}
		c.Mode = core.ModeFixedK
		c.K = k
		return nil
	}
}

// WithTheorem2Mode selects the Appendix C parameterisation: section size
// k ∝ ε⁻¹·log₂log₂(1/δ), giving space O(ε⁻¹·log²(εn)·log log(1/δ)). It is
// preferable when δ is extremely small (say, below (εn)^−1); with δ small
// enough the guarantee holds for every coin outcome, recovering the
// deterministic O(ε⁻¹·log³(εn)) bound.
func WithTheorem2Mode() Option {
	return func(c *settings) error {
		c.Mode = core.ModeTheorem2
		return nil
	}
}

// WithKnownN declares an upper bound on the total stream length, sizing the
// sketch once instead of growing through the N-squaring schedule of
// Section 5. Exceeding the bound is safe (growth resumes) but forfeits the
// pre-sizing benefit. It pairs well with UpdateBatch: with the bound known
// up front no growth can land mid-batch, so batch and per-item ingest are
// bit-for-bit identical.
func WithKnownN(n uint64) Option {
	return func(c *settings) error {
		if n == 0 {
			return fmt.Errorf("req: known n must be positive")
		}
		c.N0 = core.CeilPow2(n)
		return nil
	}
}

// WithHighRankAccuracy makes the relative-error guarantee apply to
// n − R(y), i.e., to the largest items: the sketch stores the top of the
// distribution exactly and degrades gracefully toward the bottom. This is
// the mode for latency-tail monitoring (p99, p99.9, …), per the reversed-
// comparator observation in Section 1 of the paper.
func WithHighRankAccuracy() Option {
	return func(c *settings) error {
		c.HRA = true
		return nil
	}
}

// WithShards fixes the shard count of a Sharded sketch (it is rounded up
// to a power of two internally). The default, also selected by n = 0, is
// automatic GOMAXPROCS-based scaling. More shards reduce writer contention
// at the cost of a slightly larger merged read snapshot. Plain (unsharded)
// sketches ignore this option.
func WithShards(n int) Option {
	return func(c *settings) error {
		if n < 0 {
			return fmt.Errorf("req: shard count %d must be non-negative", n)
		}
		c.shards = n
		return nil
	}
}

// WithTTL sets a registry's idle time-to-live: a key untouched (no update,
// no query) for at least d reads as absent and its storage is reclaimed —
// lazily on access, under capacity pressure, or by an explicit ExpireNow
// sweep. d must be positive. Plain (unkeyed) sketches ignore this option.
func WithTTL(d time.Duration) Option {
	return func(c *settings) error {
		if d <= 0 {
			return fmt.Errorf("req: TTL %v must be positive", d)
		}
		c.ttlNanos = int64(d)
		return nil
	}
}

// WithMaxEntries caps a registry's resident key count at n (split evenly
// across shards: each shard enforces ceil(n/shards)). A creation over a
// full shard evicts one resident key chosen by a clock-hand second-chance
// sweep — TTL-expired keys first, least-recently-touched next. Plain
// (unkeyed) sketches ignore this option.
func WithMaxEntries(n int) Option {
	return func(c *settings) error {
		if n <= 0 {
			return fmt.Errorf("req: max entries %d must be positive", n)
		}
		c.maxEntries = n
		return nil
	}
}

// WithWindow shapes a WindowedRegistry: per key, a ring of slots sketch
// slots each covering slot duration of stream time, so queries answer over
// the trailing slots·slot window (the current partial slot plus slots−1
// sealed ones). More slots means finer window granularity at
// proportionally more memory per key. Slots must be ≥ 2; slot must be
// positive. Registry and plain sketches reject/ignore this option
// respectively; NewWindowedRegistry requires it.
func WithWindow(slots int, slot time.Duration) Option {
	return func(c *settings) error {
		if slots < 2 {
			return fmt.Errorf("req: window slot count %d must be ≥ 2", slots)
		}
		if slot <= 0 {
			return fmt.Errorf("req: window slot duration %v must be positive", slot)
		}
		c.windowSlots = slots
		c.slotNanos = int64(slot)
		return nil
	}
}

// WithClock injects the registry's nanosecond clock, read on every keyed
// operation for TTL bookkeeping and window-slot rotation. The default is
// the wall clock (time.Now().UnixNano()); tests inject synthetic time to
// drive eviction and rotation deterministically. now must be monotonic
// non-decreasing for eviction semantics to be meaningful. Plain (unkeyed)
// sketches ignore this option.
func WithClock(now func() int64) Option {
	return func(c *settings) error {
		if now == nil {
			return fmt.Errorf("req: nil clock")
		}
		c.now = now
		return nil
	}
}

// WithSeed fixes the seed of the sketch's internal random source, making
// runs bit-for-bit reproducible. Two sketches with the same seed, options,
// and input are identical.
func WithSeed(seed uint64) Option {
	return func(c *settings) error {
		c.Seed = seed
		return nil
	}
}

// WithPaperConstants sizes the sketch with the exact constants of the
// paper's equations (15), (16) and N₀ = 2⁸·k̂ rather than the library's
// practical constants. The asymptotics are identical; the paper constants
// exist for proof convenience and make the sketch several times larger.
// Used by the reproduction experiments.
func WithPaperConstants() Option {
	return func(c *settings) error {
		c.PaperConstants = true
		return nil
	}
}
