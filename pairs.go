package req

import (
	"sync"

	"req/internal/core"
	"req/internal/tenant"
)

// Cross-key batched ingest: the wire-format hot path. A caller holding a
// whole batch of (key, value) pairs — a scrape, a flush from an upstream
// aggregator, a decoded wire frame — hands it to UpdatePairs, which plans
// the batch once (one hash pass, same-key items chained into runs, runs
// counting-sorted by shard) and then walks it shard by shard: each shard
// lock is taken once per batch, each distinct key's cell is resolved once
// per run, and each run is fed through the sketch's batch ingest path so
// the monomorphic kernels apply. Against the per-item loop this amortizes
// the maphash, the lock round-trip, the map lookup, and the TTL/eviction
// bookkeeping across every item of a run, and the sketch-level batch
// amortizations (min/max, bound checks, sorted-prefix extension) on top.
//
// # Ordering contract
//
// Within one batch, each key's items are applied in their input order;
// pairs with different keys may be reordered relative to each other (the
// batch is applied shard by shard, not left to right). Mergeability
// (Theorem 3) makes cross-key reordering free: every per-key sketch sees
// exactly the per-key subsequence it would have seen from the per-item
// loop. Each key is resolved exactly once per batch, so TTL refresh,
// lazy creation, and eviction pressure are charged per (key, batch), not
// per item — under capacity pressure a batch behaves like one access per
// distinct key. The whole batch is stamped with a single clock reading.
//
// All planning and gather scratch is pooled and grow-only: steady-state
// UpdatePairs allocates nothing.

// KV pairs one key with one value for the []KV convenience front,
// UpdateKVs — the natural decode target for a wire frame.
type KV[K comparable, T any] struct {
	Key   K
	Value T
}

// resolveBlock is how many runs the two-phase shard walk resolves ahead
// of ingesting them: large enough that the independent map probes fill
// the memory system's miss parallelism, small enough that a block's cells
// and level-0 lines (a few cache lines per run) still fit in L1/L2 when
// the ingest phase comes back for them.
const resolveBlock = 64

// pairScratch is the pooled per-call scratch of the batched ingest
// pipeline: the tenant-side plan, the resolved-cell buffer for the
// two-phase shard walk, the gather buffer for non-contiguous runs, and
// the parallel-slice staging used by UpdateKVs and by the screening of
// pairs whose item the order's table drops. Grow-only; reused verbatim
// across batches. The cell pointers left behind after a batch point into
// the owning registry's arenas, which live exactly as long as the registry
// that owns the pool.
type pairScratch[K comparable, E, T any] struct {
	batch tenant.Batch[K]
	cells []*E
	run   []T
	keys  []K
	vals  []T
	// hint receives each resolved cell's PrefetchHint in the two-phase
	// walk: a real store the compiler cannot elide, keeping the
	// prefetching loads alive.
	hint T
}

// getPairScratch pops a scratch from the pool (allocating only on a cold
// pool). Pools hold *pairScratch, so no boxing happens on Put.
func getPairScratch[K comparable, E, T any](pool *sync.Pool) *pairScratch[K, E, T] {
	if sc, _ := pool.Get().(*pairScratch[K, E, T]); sc != nil {
		return sc
	}
	return new(pairScratch[K, E, T])
}

// updatePairs is the shared pipeline under every UpdatePairs front:
// Registry and WindowedRegistry differ only in their entry payload and in
// what "ingest one run" means, passed as ingest (a top-level function, so
// no closure is allocated). ep is the windowed epoch (unused by the plain
// registry). The pairs are screened first with the order's table: a pair
// whose item the table drops is skipped with its key, so it never creates
// or touches a key. The screen is one scan of a clean batch; otherwise the
// kept pairs are compacted into pooled scratch. Runs are not tested again.
func updatePairs[K comparable, E, T any](
	m *tenant.Map[K, E], pool *sync.Pool, tab core.Table[T], now, ep int64,
	keys []K, items []T,
	touch func(e *E, ep int64) T, ingest func(e *E, ep int64, run []T),
) {
	sc := getPairScratch[K, E, T](pool)
	if !tab.AdmitsAll(items) {
		sc.keys, sc.vals = sc.keys[:0], sc.vals[:0]
		for i, x := range items {
			if tab.Admits(x) {
				sc.keys = append(sc.keys, keys[i])
				sc.vals = append(sc.vals, x)
			}
		}
		keys, items = sc.keys, sc.vals
	}
	m.PlanBatch(&sc.batch, keys)
	n := sc.batch.Runs()
	for i := 0; i < n; {
		_, _, shard := sc.batch.Run(i)
		sh := m.LockShard(shard)
		i = ingestShardRuns(m, sh, sc, keys, items, now, ep, i, shard, touch, ingest)
		sh.Unlock()
	}
	pool.Put(sc)
}

// ingestShardRuns feeds every run of one shard, starting at plan index i,
// and returns the index of the first run belonging to a different shard.
// Contiguous runs (every same-key item adjacent in the input) are sliced
// straight out of the caller's array; scattered runs are gathered once
// into the reused scratch buffer.
//
// When no creation in this shard's slice of the batch can trigger the
// eviction hand (RoomFor), the walk is two-phase: a tight loop resolves
// a block of runs' cells first, then a second loop ingests the block. The
// resolve loop's iterations are independent, so the per-key map probe and
// cell touch — the cache misses that dominate large-population ingest —
// overlap in the memory system instead of serializing behind each run's
// sketch work. The phases alternate in blocks of resolveBlock runs rather
// than over the whole shard range, so the lines the resolve phase pulls
// are still resident when the ingest phase reaches them (a whole-range
// pass over thousands of runs would evict its own prefetches).
// Under capacity pressure the phases stay interleaved run by run: an
// eviction in the resolve phase could reclaim a cell resolved earlier in
// the same batch, which the run-at-a-time order makes impossible (a run's
// items are in its key's sketch before any later creation can evict the
// cell).
//
// +req:locksRequired(sh.mu)
func ingestShardRuns[K comparable, E, T any](
	m *tenant.Map[K, E], sh *tenant.Shard[K, E], sc *pairScratch[K, E, T],
	keys []K, items []T, now, ep int64, i, shard int,
	touch func(e *E, ep int64) T, ingest func(e *E, ep int64, run []T),
) int {
	b := &sc.batch
	n := b.Runs()
	end := i
	for ; end < n; end++ {
		if _, _, s := b.Run(end); s != shard {
			break
		}
	}
	if m.RoomFor(sh, end-i) {
		for i < end {
			blk := min(end, i+resolveBlock)
			cells := sc.cells[:0]
			for j := i; j < blk; j++ {
				head, _, _ := b.Run(j)
				e, _ := m.GetOrCreate(sh, keys[head], now)
				sc.hint = touch(e, ep)
				cells = append(cells, e)
			}
			sc.cells = cells
			for j := i; j < blk; j++ {
				ingest(cells[j-i], ep, runItems(sc, items, j))
			}
			i = blk
		}
		return end
	}
	for ; i < end; i++ {
		head, _, _ := b.Run(i)
		e, _ := m.GetOrCreate(sh, keys[head], now)
		ingest(e, ep, runItems(sc, items, i))
	}
	return i
}

// runItems materializes plan run i's item sequence: a direct slice of the
// caller's array when the run is contiguous, otherwise a gather into the
// reused scratch buffer (valid until the next runItems call).
func runItems[K comparable, E, T any](sc *pairScratch[K, E, T], items []T, i int) []T {
	b := &sc.batch
	head, cnt, _ := b.Run(i)
	if b.Contiguous(i) {
		return items[head : head+cnt]
	}
	sc.run = sc.run[:0]
	for j := head; j >= 0; j = b.Next(j) {
		sc.run = append(sc.run, items[j])
	}
	return sc.run
}

// regTouch is the plain registry's resolve-phase prefetch hook: pull the
// key's level-0 append line while neighboring probes are still in flight.
func regTouch[T any](e *regEntry[T], _ int64) T {
	return e.sk.PrefetchHint()
}

// regIngest is the plain registry's run-ingest hook: the run goes straight
// into the key's sketch.
func regIngest[T any](e *regEntry[T], _ int64, run []T) {
	e.sk.IngestRun(run)
}

// winTouch prefetches the batch epoch's ring slot — the sketch winIngest
// will write — without rotating it (pure read; rotation stays in the
// ingest phase).
func winTouch[T any](e *winEntry[T], ep int64) T {
	return e.ring[e.slot(ep)].PrefetchHint()
}

// winIngest is the windowed registry's run-ingest hook: the key's live
// slot for the batch's epoch is resolved (rotating lazily) once per run,
// then the run goes into that slot.
func winIngest[T any](e *winEntry[T], ep int64, run []T) {
	e.rotate(ep).IngestRun(run)
}

// UpdatePairs inserts items[i] into keys[i]'s sketch for every i, creating
// absent keys lazily, through the shard-grouped batch pipeline (see the
// package section above for the ordering contract). A pair whose item
// Update would ignore (a NaN under NewRegistryFloat64) is skipped with its
// key, so it never creates or touches a key. The slices must have equal
// length; both are only read, never retained. Steady-state calls allocate
// nothing.
func (r *Registry[K, T]) UpdatePairs(keys []K, items []T) {
	if len(keys) != len(items) {
		panic("req: UpdatePairs slices of unequal length")
	}
	if len(keys) == 0 {
		return
	}
	updatePairs(r.m, &r.pairs, r.tab, r.now(), 0, keys, items, regTouch[T], regIngest[T])
}

// UpdateKVs is UpdatePairs over one slice of KV pairs — the wire-format
// convenience. The pairs are split into pooled parallel key/value slices
// and fed through the same pipeline.
func (r *Registry[K, T]) UpdateKVs(kvs []KV[K, T]) {
	if len(kvs) == 0 {
		return
	}
	sc := getPairScratch[K, regEntry[T], T](&r.pairs)
	sc.keys, sc.vals = splitKVs(sc.keys[:0], sc.vals[:0], kvs)
	r.UpdatePairs(sc.keys, sc.vals)
	r.pairs.Put(sc)
}

// splitKVs unzips kvs onto the (truncated, reused) parallel slices.
func splitKVs[K comparable, T any](keys []K, vals []T, kvs []KV[K, T]) ([]K, []T) {
	for i := range kvs {
		keys = append(keys, kvs[i].Key)
		vals = append(vals, kvs[i].Value)
	}
	return keys, vals
}

// UpdatePairs inserts items[i] into keys[i]'s current window slot for every
// i, creating absent keys lazily. The batch is planned once and applied
// shard by shard exactly like Registry.UpdatePairs, with one addition: the
// epoch is computed once from a single clock reading, and each run
// resolves its key's live slot once (rotating lazily) rather than per
// item. Steady-state calls allocate nothing.
func (w *WindowedRegistry[K, T]) UpdatePairs(keys []K, items []T) {
	if len(keys) != len(items) {
		panic("req: UpdatePairs slices of unequal length")
	}
	if len(keys) == 0 {
		return
	}
	now := w.now()
	updatePairs(w.m, &w.pairs, w.tab, now, w.epoch(now), keys, items, winTouch[T], winIngest[T])
}

// UpdateKVs is UpdatePairs over one slice of KV pairs; see
// Registry.UpdateKVs.
func (w *WindowedRegistry[K, T]) UpdateKVs(kvs []KV[K, T]) {
	if len(kvs) == 0 {
		return
	}
	sc := getPairScratch[K, winEntry[T], T](&w.pairs)
	sc.keys, sc.vals = splitKVs(sc.keys[:0], sc.vals[:0], kvs)
	w.UpdatePairs(sc.keys, sc.vals)
	w.pairs.Put(sc)
}
