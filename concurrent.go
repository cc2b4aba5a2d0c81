package req

import (
	"iter"
	"sync"
)

// ConcurrentFloat64 is a mutex-guarded Float64 sketch, safe for concurrent
// use by multiple goroutines. Updates take an exclusive lock. Queries take
// only the shared (read) lock while the sketch is frozen (its cached
// sorted view is materialized); the first query after a write re-freezes
// the view and answers under one exclusive acquisition, so queries always
// terminate even under a sustained write stream, and once frozen any
// number of queries proceed in parallel without serializing each other.
//
// For write-heavy pipelines the single mutex is the bottleneck; use Sharded
// (or ShardedFloat64), which stripes writers across per-shard sketches and
// merges at read time. This wrapper remains the right choice when updates
// are rare or a single consistent sketch instance is required.
type ConcurrentFloat64 struct {
	mu sync.RWMutex
	// +req:guardedBy(mu)
	s *Float64
}

// NewConcurrentFloat64 returns a thread-safe float64 sketch.
func NewConcurrentFloat64(opts ...Option) (*ConcurrentFloat64, error) {
	s, err := NewFloat64(opts...)
	if err != nil {
		return nil, err
	}
	return &ConcurrentFloat64{s: s}, nil
}

// Update inserts one value.
func (c *ConcurrentFloat64) Update(v float64) {
	c.mu.Lock()
	c.s.Update(v)
	c.mu.Unlock()
}

// UpdateBatch inserts every value of the slice under one lock acquisition,
// through the batch ingest path (NaNs skipped). Batching is doubly valuable
// here: it amortizes both the sketch-internal bookkeeping and the mutex
// traffic other writers and readers contend on.
func (c *ConcurrentFloat64) UpdateBatch(vs []float64) {
	c.mu.Lock()
	c.s.UpdateBatch(vs)
	c.mu.Unlock()
}

// Count returns the number of values summarised.
func (c *ConcurrentFloat64) Count() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.Count()
}

// Empty reports whether the sketch has seen no values.
func (c *ConcurrentFloat64) Empty() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.Empty()
}

// Rank returns the estimated inclusive rank of y.
//
// Rank scans the buffers directly (it does not build the cached sorted
// view), so a read lock suffices.
func (c *ConcurrentFloat64) Rank(y float64) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.Rank(y)
}

// RankExclusive returns the estimated exclusive rank of y (#values < y).
// Like Rank it scans the buffers directly under the read lock.
func (c *ConcurrentFloat64) RankExclusive(y float64) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.RankExclusive(y)
}

// NormalizedRank returns Rank(y)/Count() in [0, 1], both read under one
// lock acquisition.
func (c *ConcurrentFloat64) NormalizedRank(y float64) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.NormalizedRank(y)
}

// frozenRead runs f against the wrapped sketch under the freeze discipline
// every sorted-view query shares: while the sketch is frozen (no write
// since the last sorted query) f runs under the shared read lock; otherwise
// the sketch is frozen and f run under a single exclusive acquisition, so
// queries always terminate even under a sustained write stream.
//
// +req:callsWithLock(mu)
func (c *ConcurrentFloat64) frozenRead(f func()) {
	c.mu.RLock()
	if c.s.Frozen() {
		f()
		c.mu.RUnlock()
		return
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Freeze()
	f()
}

// Quantile returns the item at normalized rank phi; see frozenRead for the
// locking discipline.
func (c *ConcurrentFloat64) Quantile(phi float64) (q float64, err error) {
	c.frozenRead(func() { q, err = c.s.Quantile(phi) })
	return q, err
}

// Quantiles returns the items at each normalized rank; see frozenRead for
// the locking discipline.
func (c *ConcurrentFloat64) Quantiles(phis []float64) (qs []float64, err error) {
	c.frozenRead(func() { qs, err = c.s.Quantiles(phis) })
	return qs, err
}

// QuantilesInto answers every normalized rank in phis, writing into dst
// (grown as needed); see frozenRead for the locking discipline. dst must
// not be shared with concurrent callers.
func (c *ConcurrentFloat64) QuantilesInto(dst []float64, phis []float64) (qs []float64, err error) {
	c.frozenRead(func() { qs, err = c.s.QuantilesInto(dst, phis) })
	return qs, err
}

// RankBatch answers every probe in ys with one galloping sweep over the
// frozen view, writing into dst (grown as needed) in probe order; see
// Sketch.RankBatch and frozenRead. dst must not be shared with concurrent
// callers.
func (c *ConcurrentFloat64) RankBatch(dst []uint64, ys []float64) (out []uint64) {
	c.frozenRead(func() { out = c.s.RankBatch(dst, ys) })
	return out
}

// NormalizedRankBatch is RankBatch normalized by Count(); same locking
// discipline.
func (c *ConcurrentFloat64) NormalizedRankBatch(dst []float64, ys []float64) (out []float64) {
	c.frozenRead(func() { out = c.s.NormalizedRankBatch(dst, ys) })
	return out
}

// CDF returns the estimated normalized ranks at each ascending split
// point; see frozenRead for the locking discipline.
func (c *ConcurrentFloat64) CDF(splits []float64) (out []float64, err error) {
	c.frozenRead(func() { out, err = c.s.CDF(splits) })
	return out, err
}

// CDFInto writes the estimated normalized rank at each ascending split
// point into dst (grown as needed); see frozenRead for the locking
// discipline. dst must not be shared with concurrent callers.
func (c *ConcurrentFloat64) CDFInto(dst []float64, splits []float64) (out []float64, err error) {
	c.frozenRead(func() { out, err = c.s.CDFInto(dst, splits) })
	return out, err
}

// PMF returns the estimated probability mass of each interval delimited by
// the ascending split points; see frozenRead for the locking discipline.
func (c *ConcurrentFloat64) PMF(splits []float64) (out []float64, err error) {
	c.frozenRead(func() { out, err = c.s.PMF(splits) })
	return out, err
}

// PMFInto writes the estimated probability mass of each interval delimited
// by the ascending split points into dst (grown as needed); see frozenRead
// for the locking discipline. dst must not be shared with concurrent
// callers.
func (c *ConcurrentFloat64) PMFInto(dst []float64, splits []float64) (out []float64, err error) {
	c.frozenRead(func() { out, err = c.s.PMFInto(dst, splits) })
	return out, err
}

// Min returns the exact minimum. ok is false when empty.
func (c *ConcurrentFloat64) Min() (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.Min()
}

// Max returns the exact maximum. ok is false when empty.
func (c *ConcurrentFloat64) Max() (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.Max()
}

// ItemsRetained returns the storage footprint in items.
func (c *ConcurrentFloat64) ItemsRetained() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.ItemsRetained()
}

// Merge absorbs a plain sketch into the concurrent one.
func (c *ConcurrentFloat64) Merge(other *Float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Merge(other)
}

// MarshalBinary serializes the wrapped sketch. Serialization reads the
// state without modifying it, so the shared lock suffices.
func (c *ConcurrentFloat64) MarshalBinary() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.MarshalBinary()
}

// All iterates the weighted coreset — every retained value in ascending
// order with its weight — under the frozenRead locking discipline: the
// sketch's lock is held for the duration of the loop, so the yield body
// must not call back into this wrapper AT ALL. Even read methods deadlock:
// the loop holds the read lock, and a recursive RLock queues behind any
// writer already waiting for the exclusive lock. Use Snapshot().All() to
// iterate without holding the lock.
func (c *ConcurrentFloat64) All() iter.Seq2[float64, uint64] {
	return func(yield func(item float64, weight uint64) bool) {
		c.frozenRead(func() {
			for x, w := range c.s.All() {
				if !yield(x, w) {
					return
				}
			}
		})
	}
}

// Snapshot captures the current state as an immutable, concurrency-safe
// Snapshot answering exactly what the wrapped sketch would at capture time;
// queries on it never touch this wrapper's lock again. While the sketch is
// frozen with its rank index built (the steady query-heavy state), the
// capture is a pure O(retained) copy under the shared lock, so concurrent
// readers are not stalled; only the first capture after a write pays an
// exclusive acquisition to re-freeze.
//
// Before PR 4 this returned (*Float64, error) — a full mutable deep clone.
// Callers that need the mutable state (to keep ingesting or merge) should
// use MarshalBinary + DecodeFloat64 instead.
func (c *ConcurrentFloat64) Snapshot() *SnapshotFloat64 {
	c.mu.RLock()
	if c.s.core.FrozenIndexed() {
		// FreezeOwned on a frozen+indexed sketch mutates nothing: the view
		// and index are current, so it reduces to copying them out.
		f := c.s.core.FreezeOwned()
		c.mu.RUnlock()
		return &Snapshot[float64]{f: f}
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Snapshot[float64]{f: c.s.core.FreezeOwned()}
}
