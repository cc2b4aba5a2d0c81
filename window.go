package req

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"req/internal/core"
	"req/internal/tenant"
)

// WindowedRegistry is a Registry whose per-key answers cover only a
// trailing time window: each key owns a ring of WithWindow-configured
// sketch slots, updates land in the slot owning the current epoch, and
// queries answer over the live slots — the current partial slot plus the
// sealed ones still inside the window — taken together as one weighted
// coreset, so a windowed answer carries the same relative-error budget as a
// single sketch over the same items. This is the monitoring shape:
// per-endpoint p99 over the last N minutes, keys appearing and expiring as
// traffic shifts.
//
// # Rotation
//
// Time divides into fixed epochs of WithWindow's slot duration (floored, so
// clock readings before zero fall in negative epochs); slot
// i = epoch mod slots owns epoch's items. Rotation is lazy — the first
// update of a new epoch resets the ring slot it lands in (recycling the
// slot's storage) — so idle keys cost nothing to rotate and a clock that
// jumps several epochs simply leaves stale slots behind, which queries
// exclude by epoch tag. A query sees between (slots−1)·slot and
// slots·slot of trailing stream time depending on the phase of the
// current epoch; a clock that steps backward hides slots stamped at later
// epochs until it catches up.
//
// # Query path
//
// A quantile read settles each live slot's level buffers in place (the
// sort-and-merge of the level-0 append tail that every compaction starts
// with) and selects the answer over all of them at once: the smallest
// retained item whose summed weight Σ 2^h·#{x ≤ y} reaches ⌈φn⌉, by binary
// searches in the sorted levels (core.Union). Nothing is copied, merged or
// compacted, and the answers equal, under the order, those of a sorted view
// over the union of the live slots' coresets, whose rank error is the sum
// of the slots' own. Rank sums the live slots' ranks. The per-shard union scratch
// is grow-only, so steady-state windowed queries allocate nothing. Batch
// the ranks you need into one QuantilesInto call: an ascending φ set
// narrows the selection as it goes.
//
// Eviction, sharding, clocking and concurrency are the Registry's; see
// WithTTL, WithMaxEntries, WithShards, WithClock.
type WindowedRegistry[K comparable, T any] struct {
	m   *tenant.Map[K, winEntry[T]]
	tab core.Table[T] // the order's kernel table; writes are screened with its item rule
	// proto is the empty sketch every ring slot is stamped from (initKey).
	proto core.Sketch[T]
	now   func() int64
	// pairs pools the batched-ingest scratch (*pairScratch[K, E, T]).
	pairs sync.Pool

	slots     int
	slotNanos int64
}

// winEntry is the arena payload of one windowed key: the slot ring and
// the epoch tag of each slot (unwritten for a slot no update has reached).
type winEntry[T any] struct {
	ring   []core.Sketch[T]
	epochs []int64
}

// unwritten tags a slot that holds no epoch. epoch never returns it.
const unwritten = math.MinInt64

// slot returns the ring index owning epoch ep: ep mod len(ring), in
// [0, len(ring)) for negative epochs too.
func (e *winEntry[T]) slot(ep int64) int {
	i := int(ep % int64(len(e.ring)))
	if i < 0 {
		i += len(e.ring)
	}
	return i
}

// rotate returns the ring slot owning epoch ep, resetting it first if its
// tag is stale (lazy rotation).
func (e *winEntry[T]) rotate(ep int64) *core.Sketch[T] {
	i := e.slot(ep)
	if e.epochs[i] != ep {
		e.ring[i].Reset()
		e.epochs[i] = ep
	}
	return &e.ring[i]
}

// NewWindowedRegistry returns an empty windowed registry over the strict
// order less. WithWindow is required — it shapes the ring every key
// carries; the remaining options behave as in NewRegistry.
func NewWindowedRegistry[K comparable, T any](less func(a, b T) bool, opts ...Option) (*WindowedRegistry[K, T], error) {
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
	if st.windowSlots == 0 {
		return nil, errors.New("req: a WindowedRegistry requires WithWindow")
	}
	w := &WindowedRegistry[K, T]{
		tab:       core.TableFor(less),
		now:       st.clock(),
		slots:     st.windowSlots,
		slotNanos: st.slotNanos,
	}
	if err := w.proto.Init(less, st.Config); err != nil {
		return nil, err
	}
	w.m = tenant.NewMap(st.tenantConfig(), w.initEntry,
		func(e *winEntry[T]) {
			for i := range e.ring {
				e.ring[i].Reset()
				e.epochs[i] = unwritten
			}
		},
	)
	return w, nil
}

// initEntry initializes an arena-fresh ring of shard sh with allocation
// sequence seq (see tenant.NewMap): each (key, slot) pair gets its own
// seed stream, and every slot borrows the shard's Work.
//
// +req:locksRequired(sh.mu)
func (w *WindowedRegistry[K, T]) initEntry(sh *tenant.Shard[K, winEntry[T]], e *winEntry[T], seq uint64) {
	e.ring = make([]core.Sketch[T], w.slots)
	e.epochs = make([]int64, w.slots)
	work := shardWork[T](sh)
	for i := range e.ring {
		initKey(&e.ring[i], &w.proto, seq*uint64(w.slots)+uint64(i), work)
		e.epochs[i] = unwritten
	}
}

// epoch returns the epoch owning caller-clock time now: now/slot rounded
// down, so time before zero falls in negative epochs. Only a 1 ns slot at
// the clock's minimum could floor to unwritten; it joins the next epoch.
func (w *WindowedRegistry[K, T]) epoch(now int64) int64 {
	ep := now / w.slotNanos
	if now%w.slotNanos < 0 {
		ep--
	}
	return max(ep, unwritten+1)
}

// Update inserts one item into key's current window slot, creating the
// key's ring on first update and rotating (resetting) the slot if it
// still holds an expired epoch. An item the order's table drops (NaN
// under NewWindowedRegistryFloat64) is ignored and never creates or
// touches a key.
func (w *WindowedRegistry[K, T]) Update(key K, item T) {
	if !w.tab.Admits(item) {
		return
	}
	now := w.now()
	ep := w.epoch(now)
	sh := w.m.Lock(key)
	e, _ := w.m.GetOrCreate(sh, key, now)
	e.rotate(ep).Update(item)
	sh.Unlock()
}

// UpdateBatch inserts every item of the slice into key's current window
// slot through the batch ingest path. Items Update would ignore are
// skipped, and a batch of nothing else creates no key. The slice is only
// read.
func (w *WindowedRegistry[K, T]) UpdateBatch(key K, items []T) {
	if items = w.tab.Admitted(items); len(items) == 0 {
		return
	}
	now := w.now()
	ep := w.epoch(now)
	sh := w.m.Lock(key)
	e, _ := w.m.GetOrCreate(sh, key, now)
	e.rotate(ep).IngestRun(items)
	sh.Unlock()
}

// live reports whether a slot tagged tag falls inside the window ending at
// epoch ep: ep−slots < tag ≤ ep. The difference is taken unsigned, so it
// cannot overflow and a tag after ep wraps far past slots. An unwritten
// slot is empty, so no answer depends on whether it counts as live.
func (w *WindowedRegistry[K, T]) live(tag, ep int64) bool {
	return uint64(ep)-uint64(tag) < uint64(w.slots)
}

// lockRing locks key's shard and returns key's ring, or nil (shard still
// locked) when the key is absent or expired, with the current epoch.
//
// +req:locksAcquired(return1.mu)
func (w *WindowedRegistry[K, T]) lockRing(key K) (*tenant.Shard[K, winEntry[T]], *winEntry[T], int64) {
	now := w.now()
	sh := w.m.Lock(key)
	return sh, w.m.Get(sh, key, now), w.epoch(now)
}

// lockUnion locks key's shard and loads key's live slots into the shard's
// union query, or returns nil (shard still locked) when the key is absent
// or expired. The caller resets the union when done, so it keeps no alias
// of the ring's storage.
//
// +req:locksAcquired(return1.mu)
func (w *WindowedRegistry[K, T]) lockUnion(key K) (*tenant.Shard[K, winEntry[T]], *core.Union[T]) {
	now := w.now()
	sh := w.m.Lock(key)
	e := w.m.Get(sh, key, now)
	if e == nil {
		return sh, nil
	}
	return sh, w.union(sh, e, w.epoch(now))
}

// union loads e's live slots into the reusable union of the Work that sh
// lends them (see shardWork).
//
// +req:locksRequired(sh.mu)
func (w *WindowedRegistry[K, T]) union(sh *tenant.Shard[K, winEntry[T]], e *winEntry[T], ep int64) *core.Union[T] {
	u := shardWork[T](sh).Union()
	u.Reset()
	for i := range e.ring {
		if w.live(e.epochs[i], ep) {
			u.Add(&e.ring[i])
		}
	}
	return u
}

// Quantile returns the item at normalized rank phi over key's trailing
// window; see Sketch.Quantile. It returns ErrNoKey when the key is absent
// and ErrEmpty when the key's window holds no items.
func (w *WindowedRegistry[K, T]) Quantile(key K, phi float64) (T, error) {
	sh, u := w.lockUnion(key)
	defer sh.Unlock()
	if u == nil {
		var zero T
		return zero, ErrNoKey
	}
	defer u.Reset()
	return u.Quantile(phi)
}

// QuantilesInto answers every normalized rank in phis over key's trailing
// window in one read, writing into dst (grown as needed); see
// Sketch.QuantilesInto. It returns ErrNoKey when the key is absent. This
// is the preferred shape for multi-quantile dashboards: the live slots are
// settled once for all ranks, and an ascending φ set narrows the selection
// as it goes.
func (w *WindowedRegistry[K, T]) QuantilesInto(key K, dst []T, phis []float64) ([]T, error) {
	sh, u := w.lockUnion(key)
	defer sh.Unlock()
	if u == nil {
		return dst, ErrNoKey
	}
	defer u.Reset()
	return u.QuantilesInto(dst, phis)
}

// Rank returns the estimated inclusive rank of y over key's trailing
// window: the sum of the live slots' ranks (see Sketch.Rank). It returns
// ErrNoKey when the key is absent.
func (w *WindowedRegistry[K, T]) Rank(key K, y T) (uint64, error) {
	sh, e, ep := w.lockRing(key)
	defer sh.Unlock()
	if e == nil {
		return 0, ErrNoKey
	}
	var r uint64
	for i := range e.ring {
		if w.live(e.epochs[i], ep) {
			r += e.ring[i].Rank(y)
		}
	}
	return r, nil
}

// Count returns the number of items inside key's trailing window, 0 when
// the key is absent. It only sums the live slots' counts.
func (w *WindowedRegistry[K, T]) Count(key K) uint64 {
	sh, e, ep := w.lockRing(key)
	defer sh.Unlock()
	if e == nil {
		return 0
	}
	var n uint64
	for i := range e.ring {
		if w.live(e.epochs[i], ep) {
			n += e.ring[i].Count()
		}
	}
	return n
}

// Contains reports whether key has a resident, non-expired ring, without
// refreshing its TTL.
func (w *WindowedRegistry[K, T]) Contains(key K) bool {
	now := w.now()
	sh := w.m.Lock(key)
	defer sh.Unlock()
	return w.m.Peek(sh, key, now) != nil
}

// Delete removes key's ring, recycling its storage. It reports whether
// the key was resident.
func (w *WindowedRegistry[K, T]) Delete(key K) bool {
	sh := w.m.Lock(key)
	defer sh.Unlock()
	return w.m.Delete(sh, key)
}

// Len returns the number of resident keys (see Registry.Len).
func (w *WindowedRegistry[K, T]) Len() int { return w.m.Len() }

// Evictions returns the total number of entries reclaimed so far.
func (w *WindowedRegistry[K, T]) Evictions() uint64 { return w.m.Evictions() }

// ExpireNow eagerly reclaims every TTL-expired key; see
// Registry.ExpireNow.
func (w *WindowedRegistry[K, T]) ExpireNow() int { return w.m.ExpireNow(w.now()) }

// Reset drops every key (a teardown, not an eviction), with the Work each
// shard lent them.
func (w *WindowedRegistry[K, T]) Reset() { w.m.Reset() }

// NumShards returns the registry's shard count.
func (w *WindowedRegistry[K, T]) NumShards() int { return w.m.NumShards() }

// Slots returns the ring length configured by WithWindow.
func (w *WindowedRegistry[K, T]) Slots() int { return w.slots }

// SlotDuration returns the epoch length configured by WithWindow.
func (w *WindowedRegistry[K, T]) SlotDuration() time.Duration {
	return time.Duration(w.slotNanos)
}

// WindowDuration returns the full window span: Slots() · SlotDuration().
// A query covers between WindowDuration()−SlotDuration() and
// WindowDuration() of trailing stream time depending on epoch phase.
func (w *WindowedRegistry[K, T]) WindowDuration() time.Duration {
	return time.Duration(int64(w.slots) * w.slotNanos)
}

// String returns a short human-readable summary.
func (w *WindowedRegistry[K, T]) String() string {
	return fmt.Sprintf("req.WindowedRegistry{keys=%d, shards=%d, window=%d×%s}",
		w.Len(), w.NumShards(), w.slots, w.SlotDuration())
}

// WindowedRegistryFloat64 is a windowed registry of float64 sketches
// keyed by string — per-endpoint latency over a trailing window. NaNs are
// ignored on every write path.
type WindowedRegistryFloat64 = WindowedRegistry[string, float64]

// NewWindowedRegistryFloat64 returns an empty string-keyed windowed
// float64 registry configured by opts (WithWindow required). Values
// compare by the usual < order (the canonical core.LessF64).
func NewWindowedRegistryFloat64(opts ...Option) (*WindowedRegistryFloat64, error) {
	return NewWindowedRegistry[string](core.LessF64, opts...)
}
