package req

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"req/internal/core"
)

// Sharded is the package's concurrent sketch. Instead of funneling every
// writer through one mutex, it stripes updates across a GOMAXPROCS-scaled
// set of independent core sketches, each behind its own lock, and answers
// queries from a merged snapshot that is rebuilt lazily when a query
// observes that a shard has changed. WithShards(1) keeps one sketch behind
// one lock: it answers as a plain sketch fed the same stream with the same
// options and seed would.
//
// Correctness rests on the paper's full mergeability (Theorem 3, Appendix
// D): a stream split arbitrarily across shards and merged at read time
// carries the same ε relative-error guarantee as a single sketch that saw
// the whole stream, so sharding costs no accuracy.
//
// Writers pick a shard by a striping ticket and fall through to the first
// uncontended shard (try-lock sweep), so concurrent writers almost never
// wait on each other. Queries almost never block writers: a query touches
// the shard locks only when the cached snapshot is stale (epoch mismatch),
// and then holds each shard's lock just long enough to clone it — a writer
// can stall for at most one O(retained-items) shard copy, never for the
// merge or sort, which happen off to the side before the result is
// published through an atomic pointer. Read-heavy phases run entirely on
// the immutable published snapshot.
//
// Queries are point-in-time consistent: every answer is computed from one
// merged snapshot. Under concurrent ingestion a snapshot may trail the
// newest updates by the writes that landed while it was being built; Count
// alone is served from live per-shard counters and may run slightly ahead
// of the snapshot.
type Sharded[T any] struct {
	shards []*shardOf[T]
	mask   uint64 // len(shards) is a power of two
	// tab is the order's kernel table; writes are screened with its item
	// rule before they take a shard.
	tab core.Table[T]

	// affinity hands each writer back the shard it used last (sync.Pool is
	// per-P, so a goroutine keeps hitting one cache-hot shard); the ticket
	// seeds new affinities round-robin and backs the try-lock slow path.
	affinity sync.Pool
	ticket   atomic.Uint64

	// snap is the published merged snapshot; nil until the first query.
	snap atomic.Pointer[shardedSnapshot[T]]
	// rebuildMu serializes snapshot rebuilds so racing queries do the
	// clone-and-merge work once.
	rebuildMu sync.Mutex
	// stage holds one reusable staging sketch per shard: each epoch
	// refreshes them in place with CopyFrom instead of allocating fresh
	// deep clones under the shard locks, so the per-epoch rebuild cost is
	// dominated by the merge itself. The merged result is still a fresh
	// sketch every epoch — published snapshots are read lock-free by any
	// number of goroutines for an unbounded time, so their storage can
	// never be recycled without reference counting.
	//
	// +req:guardedBy(rebuildMu)
	stage []*core.Sketch[T]
	// work is the epoch merge's scratch, lent to each epoch's merged
	// sketch; a published sketch is only read (Snapshot), never through it.
	//
	// +req:guardedBy(rebuildMu)
	work *core.Work[T]
}

// shardOf is one stripe: a plain core sketch behind a mutex, plus lock-free
// mirrors of its mutation count and item count for staleness checks and
// cheap Count queries. The padding keeps the hot per-shard atomics of
// neighbouring shards on distinct cache lines.
type shardOf[T any] struct {
	mu sync.Mutex
	// +req:guardedBy(mu)
	sk *core.Sketch[T]
	// version counts mutations (updates, merges, resets); bumped under mu,
	// read without it by the snapshot staleness check.
	version atomic.Uint64
	// count mirrors sk.Count(); maintained under mu, read without it.
	count atomic.Uint64
	_     [40]byte
}

// shardedSnapshot is an immutable published view: the merged sketch, the
// public Snapshot frozen from it (shared by every reader of this epoch —
// Snapshot() hands it out without cloning), and the per-shard versions
// observed before the merge. A snapshot is fresh while every shard still
// has its recorded version.
type shardedSnapshot[T any] struct {
	epochs []uint64
	sk     *core.Sketch[T]
	pub    *Snapshot[T]
}

// shardedSeedStride separates the per-shard random streams; any odd
// constant works, this is the golden-ratio mix used by splitmix64.
const shardedSeedStride = 0x9E3779B97F4A7C15

// NewSharded returns an empty sharded sketch over the strict order less,
// configured by opts. The shard count defaults to the number of CPUs
// (rounded up to a power of two) and can be fixed with WithShards. All
// shards share the configuration; their random streams are decorrelated by
// deriving each shard's seed from the configured one.
func NewSharded[T any](less func(a, b T) bool, opts ...Option) (*Sharded[T], error) {
	st, err := buildSettings(opts)
	if err != nil {
		return nil, err
	}
	if err := st.Normalize(); err != nil {
		return nil, err
	}
	n := st.shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = int(core.CeilPow2(uint64(n)))
	s := &Sharded[T]{mask: uint64(n - 1), shards: make([]*shardOf[T], n), tab: core.TableFor(less)}
	for i := range s.shards {
		scfg := st.Config
		scfg.Seed = st.Seed + uint64(i)*shardedSeedStride
		sk, err := core.New(less, scfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shardOf[T]{sk: sk}
	}
	return s, nil
}

// ShardedFloat64 is a Sharded sketch of float64 values under their
// natural order, the thread-safe counterpart of Float64: NaNs are ignored
// on every write path, and MarshalBinary encodes the merged state in
// Float64's format.
type ShardedFloat64 = Sharded[float64]

// NewShardedFloat64 returns an empty sharded float64 sketch configured by
// opts, ordered by the canonical core.LessF64.
func NewShardedFloat64(opts ...Option) (*ShardedFloat64, error) {
	return NewSharded(core.LessF64, opts...)
}

// ShardedUint64 is a Sharded sketch of uint64 values under their natural
// order, the thread-safe counterpart of Uint64.
type ShardedUint64 = Sharded[uint64]

// NewShardedUint64 returns an empty sharded uint64 sketch configured by
// opts, ordered by the canonical core.LessU64.
func NewShardedUint64(opts ...Option) (*ShardedUint64, error) {
	return NewSharded(core.LessU64, opts...)
}

// NumShards returns the number of stripes.
func (s *Sharded[T]) NumShards() int { return len(s.shards) }

// writeShard picks and locks the shard for this write. Fast path: the
// writer's affinity shard (per-P via sync.Pool), which is usually both
// uncontended and cache-hot. If that shard is busy, a try-lock sweep from
// a round-robin ticket finds a free shard; only when every shard is busy
// does the writer block. commitLocked returns the shard to the pool.
//
// +req:locksAcquired(return.mu)
func (s *Sharded[T]) writeShard() *shardOf[T] {
	if v := s.affinity.Get(); v != nil {
		sh := v.(*shardOf[T])
		if sh.mu.TryLock() {
			return sh
		}
	}
	t := s.ticket.Add(1)
	for i := uint64(0); i <= s.mask; i++ {
		sh := s.shards[(t+i)&s.mask]
		if sh.mu.TryLock() {
			return sh
		}
	}
	sh := s.shards[t&s.mask]
	sh.mu.Lock()
	return sh
}

// commitLocked records a mutation on sh, releases its lock, and restores
// the caller's affinity to it.
//
// +req:locksRequired(sh.mu)
// +req:locksReleased(sh.mu)
func (s *Sharded[T]) commitLocked(sh *shardOf[T]) {
	sh.count.Store(sh.sk.Count())
	sh.version.Add(1)
	sh.mu.Unlock()
	s.affinity.Put(sh)
}

// Update inserts one item. Safe for any number of concurrent callers. An
// item the order's table drops (NaN under NewShardedFloat64) is ignored
// and takes no shard.
func (s *Sharded[T]) Update(x T) {
	if !s.tab.Admits(x) {
		return
	}
	sh := s.writeShard()
	sh.sk.Update(x)
	s.commitLocked(sh)
}

// shardedBatchRun bounds one lock hold of the batched ingest path: a batch
// larger than this is fed as a sequence of contiguous runs, each under its
// own shard acquisition. The try-lock sweep in writeShard then spreads a
// huge batch's runs across uncontended stripes instead of pinning one
// shard (and every writer colliding with it) for the whole slice, while
// batches up to the threshold keep the single-acquisition fast path.
const shardedBatchRun = 4096

// UpdateBatch inserts every item of the slice through the core batch
// ingest path (min/max tracking, bound checks, and compaction cascades
// amortized across the batch). Batches up to shardedBatchRun items go into
// a single shard under one lock acquisition; larger batches are split into
// contiguous runs, each ingested under its own acquisition — mergeability
// (Theorem 3) makes the split free, and item order is preserved within
// every run. Items Update would ignore are skipped; the slice is copied
// only if it holds one.
func (s *Sharded[T]) UpdateBatch(items []T) {
	items = s.tab.Admitted(items)
	for len(items) > 0 {
		run := items
		if len(run) > shardedBatchRun && len(s.shards) > 1 {
			run = run[:shardedBatchRun]
		}
		sh := s.writeShard()
		sh.sk.IngestRun(run)
		s.commitLocked(sh)
		items = items[len(run):]
	}
}

// UpdateWeighted inserts item with the given integer weight; see
// Sketch.UpdateWeighted. An item Update would ignore is ignored here too.
func (s *Sharded[T]) UpdateWeighted(item T, weight uint64) error {
	if !s.tab.Admits(item) {
		return nil
	}
	sh := s.writeShard()
	err := sh.sk.UpdateWeighted(item, weight)
	s.commitLocked(sh)
	return err
}

// Merge absorbs a plain sketch into one shard. The other sketch is not
// modified; it must have been built with compatible options and the same
// less function, as for Sketch.Merge. A refused merge leaves s unchanged.
func (s *Sharded[T]) Merge(other *Sketch[T]) error {
	if other == nil {
		return nil
	}
	sh := s.writeShard()
	err := sh.sk.Merge(other.core)
	s.commitLocked(sh)
	return err
}

// Count returns the total number of items summarised across all shards,
// from lock-free per-shard counters.
func (s *Sharded[T]) Count() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.count.Load()
	}
	return n
}

// Empty reports whether no shard has seen an item.
func (s *Sharded[T]) Empty() bool { return s.Count() == 0 }

// Reset empties every shard in place and drops the published snapshot, the
// staging sketches and the epoch merge's scratch (which hold copies of the
// old stream that pointer-bearing item types should not keep reachable).
// Concurrent writers
// may interleave with a Reset shard-by-shard; quiesce writers first if an
// atomic clear is required.
func (s *Sharded[T]) Reset() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.sk.Reset()
		sh.count.Store(0)
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	s.rebuildMu.Lock()
	s.stage, s.work = nil, nil
	s.rebuildMu.Unlock()
	s.snap.Store(nil)
}

// fresh reports whether sn still reflects every shard.
func (s *Sharded[T]) fresh(sn *shardedSnapshot[T]) bool {
	for i, sh := range s.shards {
		if sh.version.Load() != sn.epochs[i] {
			return false
		}
	}
	return true
}

// snapshot returns a fresh published snapshot, rebuilding it if any shard
// changed since the last build. The rebuild clones each shard under its
// lock (a read-only operation on the shard apart from the brief lock hold),
// merges the clones privately, freezes the merged coreset, and publishes.
func (s *Sharded[T]) snapshot() *shardedSnapshot[T] {
	if sn := s.snap.Load(); sn != nil && s.fresh(sn) {
		return sn
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if sn := s.snap.Load(); sn != nil && s.fresh(sn) {
		return sn
	}
	// Record epochs before staging: a write that lands mid-build makes this
	// snapshot stale (conservatively), never silently lost.
	epochs := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		epochs[i] = sh.version.Load()
	}
	if s.stage == nil {
		s.stage = make([]*core.Sketch[T], len(s.shards))
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		if s.stage[i] == nil {
			s.stage[i] = sh.sk.Clone()
		} else {
			s.stage[i].CopyFrom(sh.sk)
		}
		sh.mu.Unlock()
	}
	// Merge the staged copies off to the side, on the epoch's Work. The
	// accumulator must be a fresh sketch (it gets published), so the first
	// stage is deep-copied; every later stage is only read by Merge.
	if s.work == nil {
		s.work = new(core.Work[T])
	}
	merged := s.stage[0].Clone()
	merged.Borrow(s.work)
	for _, st := range s.stage[1:] {
		// Cannot fail: every shard shares one normalized config and the
		// staged copies are distinct instances.
		_ = merged.Merge(st)
	}
	// Freeze the coreset: every query on the published snapshot — single
	// or batch — is a pure read of its sorted items and cumulative
	// weights, which MergeInto merges straight into two arrays the public
	// Snapshot owns.
	pub := snapshotOf(merged)
	sn := &shardedSnapshot[T]{epochs: epochs, sk: merged, pub: &pub}
	s.snap.Store(sn)
	return sn
}

// reader returns the current epoch's published immutable reader, rebuilding
// the snapshot first if any shard changed. Every query method delegates
// through it, so the whole query surface is answered by the one frozen
// Snapshot implementation.
func (s *Sharded[T]) reader() *Snapshot[T] { return s.snapshot().pub }

// Min returns the smallest item seen as of the current snapshot. ok is
// false when empty.
func (s *Sharded[T]) Min() (item T, ok bool) { return s.reader().Min() }

// Max returns the largest item seen as of the current snapshot. ok is
// false when empty.
func (s *Sharded[T]) Max() (item T, ok bool) { return s.reader().Max() }

// Rank returns the estimated inclusive rank of y; see Sketch.Rank.
func (s *Sharded[T]) Rank(y T) uint64 { return s.reader().Rank(y) }

// RankExclusive returns the estimated exclusive rank of y.
func (s *Sharded[T]) RankExclusive(y T) uint64 { return s.reader().RankExclusive(y) }

// NormalizedRank returns Rank(y)/Count() in [0, 1], both evaluated on one
// snapshot.
func (s *Sharded[T]) NormalizedRank(y T) float64 { return s.reader().NormalizedRank(y) }

// Quantile returns the item at normalized rank phi; see Sketch.Quantile.
func (s *Sharded[T]) Quantile(phi float64) (T, error) { return s.reader().Quantile(phi) }

// Quantiles returns the items at each normalized rank, all answered from
// one snapshot.
func (s *Sharded[T]) Quantiles(phis []float64) ([]T, error) { return s.reader().Quantiles(phis) }

// CDF returns the estimated normalized ranks at each ascending split point;
// see Sketch.CDF.
func (s *Sharded[T]) CDF(splits []T) ([]float64, error) { return s.reader().CDF(splits) }

// PMF returns the estimated probability mass of each interval delimited by
// the ascending split points; see Sketch.PMF.
func (s *Sharded[T]) PMF(splits []T) ([]float64, error) { return s.reader().PMF(splits) }

// RankBatch answers every probe in ys from one snapshot with a single
// galloping sweep over its frozen view, writing into dst (grown as needed)
// in probe order; see Sketch.RankBatch. This is the cheapest way to scrape
// many thresholds from a sharded sketch: one snapshot check, one sweep.
func (s *Sharded[T]) RankBatch(dst []uint64, ys []T) []uint64 {
	return s.reader().RankBatch(dst, ys)
}

// NormalizedRankBatch is RankBatch normalized by the snapshot's count.
func (s *Sharded[T]) NormalizedRankBatch(dst []float64, ys []T) []float64 {
	return s.reader().NormalizedRankBatch(dst, ys)
}

// QuantilesInto answers every normalized rank in phis from one snapshot,
// writing into dst (grown as needed); see Sketch.QuantilesInto.
func (s *Sharded[T]) QuantilesInto(dst []T, phis []float64) ([]T, error) {
	return s.reader().QuantilesInto(dst, phis)
}

// CDFInto is CDF writing into dst (grown as needed), answered from one
// snapshot; see Sketch.CDFInto.
func (s *Sharded[T]) CDFInto(dst []float64, splits []T) ([]float64, error) {
	return s.reader().CDFInto(dst, splits)
}

// PMFInto is PMF writing into dst (grown as needed), answered from one
// snapshot; see Sketch.PMFInto.
func (s *Sharded[T]) PMFInto(dst []float64, splits []T) ([]float64, error) {
	return s.reader().PMFInto(dst, splits)
}

// ItemsRetained returns the item footprint of the merged snapshot (the
// size a query works against). The live per-shard footprint is at most a
// shard count factor larger before merging compacts it.
func (s *Sharded[T]) ItemsRetained() int { return s.reader().ItemsRetained() }

// All iterates the weighted coreset of the current epoch snapshot: every
// retained item in ascending order with its weight. The snapshot backing
// the iteration is immutable, so the loop runs lock-free and unperturbed by
// concurrent writers (which publish later epochs, never touch this one).
func (s *Sharded[T]) All() iter.Seq2[T, uint64] { return s.reader().All() }

// Snapshot returns the current epoch's immutable, concurrency-safe
// Snapshot summarising everything ingested so far — for lock-free querying,
// coreset serialization, or handing to other goroutines. Between writes
// this is free: every caller receives the same published epoch snapshot,
// no clone is taken. Callers that need mutable state (to keep ingesting
// or to merge elsewhere) should ship the coreset with
// Snapshot().MarshalBinary (query-only) or use MarshalBinary (full sketch
// state).
func (s *Sharded[T]) Snapshot() *Snapshot[T] { return s.reader() }

// MarshalBinary serializes the merged current state in Sketch's full-state
// format; decode with DecodeFloat64 or DecodeUint64. It encodes the
// published epoch's merged sketch directly (core.Sketch.Snapshot is a pure
// read of that immutable state), so no deep copy is taken. Like
// Sketch.MarshalBinary it returns an error, and encodes nothing, unless
// the items are float64 or uint64 under their natural order. For a
// query-only encoding, use Snapshot().MarshalBinary.
func (s *Sharded[T]) MarshalBinary() ([]byte, error) {
	codec, err := codecOf(s.tab)
	if err != nil {
		return nil, err
	}
	return marshalSnapshot(s.snapshot().sk.Snapshot(), codec)
}
