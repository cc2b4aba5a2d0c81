package req

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"req/internal/core"
	"req/internal/tenant"
)

// ErrNoKey is returned by keyed queries for a key with no resident sketch
// (never updated, explicitly deleted, or evicted by TTL/capacity pressure).
var ErrNoKey = errors.New("req: no sketch for key")

// Registry is a concurrent keyed collection of sketches: one independent
// Sketch[T] per key, created lazily on the key's first Update, held in a
// sharded arena designed to keep millions of small sketches resident
// cheaply. It is the multi-tenant container — per-user, per-endpoint,
// per-device quantiles — where the systems problem is the population, not
// any single stream.
//
// # Memory model
//
// Entries live in per-shard block arenas (256 entries per block), so a
// million-key registry is a few thousand allocations, not a few million,
// and each level of a key's sketch owns one buffer; level 0's starts at 8
// items and grows with the key's items, so a key holding a few items costs
// a few hundred bytes. A key is its levels: every key of a shard borrows
// the shard's one core.Work for the scratch of its compactions, settles
// and merges, so reads, Snapshot, exports and the Visit facade's reads
// leave nothing on the key; a registry that exports keeps the last
// export's records instead (see MarshalBinary). Eviction never frees an
// entry: the cell goes on the shard's freelist and the next created key
// recycles it — Sketch.Reset keeps every grown level buffer — so
// steady-state key churn allocates nothing. Shards are split by maphash;
// WithShards fixes the shard count.
//
// # Eviction
//
// WithTTL sets an idle time-to-live: a key untouched (no update, no query)
// for the TTL reads as absent and its storage is reclaimed lazily on
// access, by capacity pressure, or by an explicit ExpireNow sweep.
// WithMaxEntries caps the resident key count (split evenly across shards);
// a creation over a full shard reclaims one resident key chosen by a
// clock-hand second-chance sweep — TTL-expired keys go first, recently
// untouched keys next. WithClock injects the nanosecond clock (tests use
// synthetic time); the default is the wall clock.
//
// All methods are safe for concurrent use; per-key operations take only
// the owning shard's lock.
type Registry[K comparable, T any] struct {
	m   *tenant.Map[K, regEntry[T]]
	tab core.Table[T] // the order's kernel table; writes are screened with its item rule
	// proto is the empty sketch every key is stamped from (initKey).
	proto core.Sketch[T]
	now   func() int64
	// pairs pools the batched-ingest scratch (*pairScratch[K, E, T]).
	pairs sync.Pool
	// exp is what the last export kept for the next (see encodeRegistry).
	exp exportMemo[T]
}

// regEntry is the arena payload: the per-key sketch, embedded by value so
// that a registry entry is exactly one sketch plus cell bookkeeping.
type regEntry[T any] struct {
	sk core.Sketch[T]
}

// NewRegistry returns an empty registry over the strict order less,
// configured by opts. Sketch-shaping options (WithEpsilon, WithK,
// WithHighRankAccuracy, …) configure every per-key sketch identically;
// WithShards, WithTTL, WithMaxEntries and WithClock configure the registry
// itself. Per-key sketches derive distinct deterministic seeds from
// WithSeed's base (splitmix-spread by creation sequence), so two
// registries fed identically are identically sized but per-key streams
// stay independent.
func NewRegistry[K comparable, T any](less func(a, b T) bool, opts ...Option) (*Registry[K, T], error) {
	if less == nil {
		return nil, errors.New("req: nil less function")
	}
	st, err := buildSettings(opts)
	if err != nil {
		return nil, err
	}
	if err := st.Normalize(); err != nil {
		return nil, err
	}
	if st.windowSlots > 0 {
		return nil, errors.New("req: WithWindow configures a WindowedRegistry, not a Registry")
	}
	r := &Registry[K, T]{tab: core.TableFor(less), now: st.clock()}
	if err := r.proto.Init(less, st.Config); err != nil {
		return nil, err
	}
	r.m = tenant.NewMap(st.tenantConfig(), r.initEntry, func(e *regEntry[T]) { e.sk.Reset() })
	return r, nil
}

// initEntry initializes an arena-fresh entry of shard sh with allocation
// sequence seq (see tenant.NewMap).
//
// +req:locksRequired(sh.mu)
func (r *Registry[K, T]) initEntry(sh *tenant.Shard[K, regEntry[T]], e *regEntry[T], seq uint64) {
	initKey(&e.sk, &r.proto, seq, shardWork[T](sh))
}

// initKey initializes s as the key sketch of allocation sequence seq,
// stamped from proto, and lends it w, the Work of the shard that holds it.
// The prototype's seed is spread by seq (splitmix), so per-key compaction
// coins are independent streams even under the default zero base seed.
func initKey[T any](s, proto *core.Sketch[T], seq uint64, w *core.Work[T]) {
	s.InitAs(proto, proto.Config().Seed^(seq+1)*0x9e3779b97f4a7c15)
	s.Borrow(w)
}

// tenantConfig maps the registry knobs onto the tenant map's sizing.
func (st *settings) tenantConfig() tenant.Config {
	return tenant.Config{Shards: st.shards, MaxEntries: st.maxEntries, TTL: st.ttlNanos}
}

// clock resolves the registry's nanosecond clock: WithClock's func, else
// the wall clock.
func (st *settings) clock() func() int64 {
	if st.now != nil {
		return st.now
	}
	return func() int64 { return time.Now().UnixNano() }
}

// Update inserts one item into key's sketch, creating the sketch on the
// key's first update (or recycling an evicted entry's storage). Updates
// are the only calls that materialize a key. An item the order's table
// drops (NaN under NewRegistryFloat64) is ignored and never creates or
// touches a key.
func (r *Registry[K, T]) Update(key K, item T) {
	if !r.tab.Admits(item) {
		return
	}
	now := r.now()
	sh := r.m.Lock(key)
	e, _ := r.m.GetOrCreate(sh, key, now)
	e.sk.Update(item)
	sh.Unlock()
}

// UpdateBatch inserts every item of the slice into key's sketch through
// the batch ingest path (see Sketch.UpdateBatch), creating the sketch if
// absent. Items Update would ignore are skipped, and a batch of nothing
// else creates no key. The slice is only read, never retained.
func (r *Registry[K, T]) UpdateBatch(key K, items []T) {
	if items = r.tab.Admitted(items); len(items) == 0 {
		return
	}
	now := r.now()
	sh := r.m.Lock(key)
	e, _ := r.m.GetOrCreate(sh, key, now)
	e.sk.IngestRun(items)
	sh.Unlock()
}

// lockGet locks key's shard and returns its live entry, or nil (shard
// still locked) when the key is absent or expired.
//
// +req:locksAcquired(return1.mu)
func (r *Registry[K, T]) lockGet(key K) (*tenant.Shard[K, regEntry[T]], *regEntry[T]) {
	sh := r.m.Lock(key)
	return sh, r.m.Get(sh, key, r.now())
}

// Count returns the number of items key's sketch has summarised, 0 if the
// key is absent.
func (r *Registry[K, T]) Count(key K) uint64 {
	sh, e := r.lockGet(key)
	defer sh.Unlock()
	if e == nil {
		return 0
	}
	return e.sk.Count()
}

// Contains reports whether key has a resident, non-expired sketch, without
// refreshing its TTL.
func (r *Registry[K, T]) Contains(key K) bool {
	now := r.now()
	sh := r.m.Lock(key)
	defer sh.Unlock()
	return r.m.Peek(sh, key, now) != nil
}

// Quantile returns the item at normalized rank phi of key's sketch; see
// Sketch.Quantile. It returns ErrNoKey when the key is absent. Querying
// refreshes the key's TTL. A read settles the key's levels and selects
// over them through the union of the shard's Work, which it leaves empty:
// the read adds nothing to the key, and steady-state reads allocate
// nothing.
func (r *Registry[K, T]) Quantile(key K, phi float64) (T, error) {
	sh, e := r.lockGet(key)
	defer sh.Unlock()
	if e == nil {
		var zero T
		return zero, ErrNoKey
	}
	return e.sk.Quantile(phi)
}

// QuantilesInto answers every normalized rank in phis against key's
// sketch, writing into dst (grown as needed) and returning it; see
// Sketch.QuantilesInto and Quantile. It returns ErrNoKey when the key is
// absent.
func (r *Registry[K, T]) QuantilesInto(key K, dst []T, phis []float64) ([]T, error) {
	sh, e := r.lockGet(key)
	defer sh.Unlock()
	if e == nil {
		return dst, ErrNoKey
	}
	return e.sk.QuantilesInto(dst, phis)
}

// shardWork returns the Work that shard sh lends to every sketch it holds,
// kept in its Aux and created with the shard's first cell: the shard lock
// that guards the sketches guards their scratch too.
//
// +req:locksRequired(sh.mu)
func shardWork[T any, K comparable, E any](sh *tenant.Shard[K, E]) *core.Work[T] {
	w, _ := sh.Aux.(*core.Work[T])
	if w == nil {
		w = new(core.Work[T])
		sh.Aux = w
	}
	return w
}

// Rank returns the estimated inclusive rank of y in key's sketch; see
// Sketch.Rank. It returns ErrNoKey when the key is absent.
func (r *Registry[K, T]) Rank(key K, y T) (uint64, error) {
	sh, e := r.lockGet(key)
	defer sh.Unlock()
	if e == nil {
		return 0, ErrNoKey
	}
	return e.sk.Rank(y), nil
}

// Snapshot captures key's sketch as an immutable, concurrency-safe
// Snapshot (see Sketch.Snapshot), or ErrNoKey when the key is absent. The
// capture is taken under the shard lock: the key's levels are settled and
// merged, through the shard's Work, straight into the two arrays the
// snapshot owns (core.Sketch.MergeInto), so the key keeps no view. The
// snapshot is then queryable without any locking.
func (r *Registry[K, T]) Snapshot(key K) (*Snapshot[T], error) {
	sh, e := r.lockGet(key)
	defer sh.Unlock()
	if e == nil {
		return nil, ErrNoKey
	}
	sn := snapshotOf(&e.sk)
	return &sn, nil
}

// Delete removes key's sketch, recycling its storage. It reports whether
// the key was resident.
func (r *Registry[K, T]) Delete(key K) bool {
	sh := r.m.Lock(key)
	defer sh.Unlock()
	return r.m.Delete(sh, key)
}

// Len returns the number of resident keys. Keys past their TTL but not
// yet swept still count; ExpireNow makes the count exact.
func (r *Registry[K, T]) Len() int { return r.m.Len() }

// Evictions returns the total number of entries reclaimed so far — TTL
// expiry, capacity pressure, and explicit Deletes all count.
func (r *Registry[K, T]) Evictions() uint64 { return r.m.Evictions() }

// ExpireNow eagerly sweeps every shard and reclaims every TTL-expired
// key, returning how many it evicted. Without WithTTL it is a no-op.
// Lazy expiry makes the sweep optional; it exists for callers that want
// Len and memory occupancy to track the live population promptly.
func (r *Registry[K, T]) ExpireNow() int { return r.m.ExpireNow(r.now()) }

// Reset drops every key and returns the arenas and the shards' Work to the
// garbage collector, together with the records the last export kept. It is
// a teardown, not an eviction: storage is not recycled.
func (r *Registry[K, T]) Reset() {
	r.exp.mu.Lock()
	defer r.exp.mu.Unlock()
	r.exp.stream, r.exp.places, r.exp.view = nil, nil, core.View[T]{}
	r.m.Reset()
}

// NumShards returns the registry's shard count.
func (r *Registry[K, T]) NumShards() int { return r.m.NumShards() }

// Visit calls fn for every resident, non-expired key with a borrowed
// Sketch[T] facade over the key's live sketch, walking shard by shard in
// arena order and holding each shard's lock across its calls. fn must not
// retain the sketch pointer past its return and must not call back into
// the registry. Returning false stops the walk. Visits do not refresh
// TTLs, so a bulk export does not perturb eviction. The walk allocates
// only the one facade it reuses across calls — this is the allocation-lean
// iteration underneath bulk snapshot export.
func (r *Registry[K, T]) Visit(fn func(key K, s *Sketch[T]) bool) {
	now := r.now()
	var facade Sketch[T]
	r.m.Visit(now, func(key K, e *regEntry[T]) bool {
		facade.core = &e.sk
		return fn(key, &facade)
	})
}

// String returns a short human-readable summary.
func (r *Registry[K, T]) String() string {
	return fmt.Sprintf("req.Registry{keys=%d, shards=%d}", r.Len(), r.NumShards())
}

// RegistryFloat64 is a registry of float64 sketches keyed by string — the
// per-endpoint / per-tenant latency shape. NaNs are ignored on every write
// path, and it persists: see SaveRegistry and OpenRegistryFloat64.
type RegistryFloat64 = Registry[string, float64]

// NewRegistryFloat64 returns an empty string-keyed float64 registry
// configured by opts. Values compare by the usual < order (the canonical
// core.LessF64, selecting the monomorphic kernel table).
func NewRegistryFloat64(opts ...Option) (*RegistryFloat64, error) {
	return NewRegistry[string](core.LessF64, opts...)
}

// RegistryUint64 is a registry of uint64 sketches keyed by uint64 — the
// per-user-ID counter-distribution shape. It persists too: see
// SaveRegistry and OpenRegistryUint64.
type RegistryUint64 = Registry[uint64, uint64]

// NewRegistryUint64 returns an empty uint64-keyed uint64 registry
// configured by opts. Values compare by the usual < order (the canonical
// core.LessU64).
func NewRegistryUint64(opts ...Option) (*RegistryUint64, error) {
	return NewRegistry[uint64](core.LessU64, opts...)
}
