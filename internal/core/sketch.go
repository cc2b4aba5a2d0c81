package core

import (
	"fmt"
	"slices"

	"req/internal/rng"
	"req/internal/schedule"
	"req/internal/vec"
)

// compactor is one relative-compactor (Algorithm 1): a buffer at level h of
// the sketch. Items in the buffer carry weight 2^h. The buffer holds up to
// b items between operations; its bottom half (in the internal order) is
// never compacted, and the top half is divided into nsec sections of k items
// compacted per the exponential schedule.
type compactor[T any] struct {
	// buf is the level's buffer, owned by the level alone: no other level,
	// and neither scratch nor mergeBuf, shares its backing array. It grows
	// by append, and its spare capacity is kept zeroed, so pointer-bearing
	// item types never linger past a truncation.
	buf []T
	// sorted is the length of the sorted prefix of buf under the sketch's
	// internal order: buf[:sorted] is sorted, buf[sorted:] is the unsorted
	// append tail. Level 0 accumulates its tail between compactions; levels
	// ≥ 1 are kept fully sorted by merging incoming emissions (a tail can
	// appear there only transiently, from direct weighted inserts, and is
	// settled before the level is next compacted or queried as a whole).
	sorted int
	// state drives the compaction schedule. In a single stream it counts
	// compactions; across merges it is the bitwise OR of the constituent
	// histories plus subsequent compactions (Algorithm 3).
	state schedule.State
	// numCompactions counts compactions actually performed at this level
	// (including special compactions); kept for instrumentation.
	numCompactions uint64
}

// Sketch is the full relative-error quantiles sketch (Algorithm 2 plus the
// unknown-stream-length handling of Section 5 and the merge machinery of
// Appendix D), generic over the item type. It is not safe for concurrent
// use. Construct it with New.
type Sketch[T any] struct {
	// kern is the kernel table of the caller's order (see kernels.go): it
	// serves the order itself (kern.less, which queries use) and every hot
	// loop.
	kern kernels[T]
	cfg  Config
	rnd  *rng.Source

	// levels[h] holds items of weight 2^h. The compactors past
	// len(levels), up to its capacity, are levels Reset or CopyFrom cut
	// off: empty, with their scrubbed buffers kept for reuse
	// (resizeLevels).
	levels   []compactor[T]
	n        uint64   // total stream length summarised
	bound    uint64   // current stream-length bound N
	geom     geometry // current (k, nsec, b), derived from bound
	retained int      // Σ len(levels[h].buf), maintained incrementally

	min, max  T
	hasMinMax bool

	// view is the cached sorted view when it is current (nil ⇒ stale): the
	// memo of batch queries and freezes, which single reads never consult.
	// spare retains the most recently built view so rebuilds recycle its
	// storage: view == spare whenever view is non-nil.
	view  *View[T]
	spare *View[T]
	// union is the selection scratch of single quantile reads, allocated
	// by the first one. A read leaves it empty, so it never aliases the
	// levels between reads.
	union *Union[T]

	// scratch is reused by settleLevel and emitHalf (tail copies and
	// emission staging), so steady-state ingest performs no allocation.
	scratch []T
	// mergeBuf stages settled copies of merge-source levels (Merge step 4),
	// reused across merges so settling allocates only on growth.
	mergeBuf []T
	// kwayCurs is the k-way merge's reusable cursor array: a slice handed
	// to the kernel table's indirect call escapes, so one grow-only
	// allocation is amortized across rebuilds.
	kwayCurs []vec.KWayCursor[T]
	// stage is a reusable deep-copy target for merge sources that need a
	// special compaction (Merge step 3), replacing a per-merge Clone.
	stage *Sketch[T]

	// Instrumentation for the experiment harness.
	stats Stats
}

// Stats aggregates instrumentation counters; see Sketch.Stats.
type Stats struct {
	Compactions        uint64 // scheduled compactions performed
	SpecialCompactions uint64 // special compactions (growth/merge, App. D)
	Growths            uint64 // times the bound N was squared
	Merges             uint64 // merge operations absorbed
	CoinFlips          uint64 // random coins consumed
	MaxBufferLen       int    // high-water buffer length observed
}

// New returns an empty sketch over the strict order less. The config is
// normalized; an invalid config returns an error.
func New[T any](less func(a, b T) bool, cfg Config) (*Sketch[T], error) {
	s := new(Sketch[T])
	if err := s.Init(less, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// initialWindow is the level-0 buffer Init reserves, in items (B is at
// least 16). The appends that fill it grow it as the level fills toward B,
// so a sketch holding a few items costs a few slots, not B of them.
const initialWindow = 8

// Init initializes s in place as an empty sketch over the strict order
// less, exactly as New would construct it. It exists for callers that
// embed Sketch by value inside pooled or arena-allocated cells (the
// multi-tenant registry packs millions of sketches into block arenas, one
// compact struct per key, with no per-sketch pointer allocation); s must
// be the zero value. It reserves one level and an initialWindow-item
// buffer: a registry key pays for the items it holds, and the level table
// and buffers grow on demand.
func (s *Sketch[T]) Init(less func(a, b T) bool, cfg Config) error {
	if less == nil {
		return fmt.Errorf("core: nil less function")
	}
	if err := cfg.Normalize(); err != nil {
		return err
	}
	s.kern = kernelFor(less)
	s.cfg = cfg
	s.rnd = rng.New(cfg.Seed)
	s.bound = cfg.initialBound()
	s.geom = cfg.geometryFor(s.bound)
	s.levels = []compactor[T]{{buf: make([]T, 0, initialWindow)}}
	return nil
}

// internalLess is the order compaction protects: the caller's order for
// low-rank accuracy, or its reverse for high-rank accuracy (HRA). Queries
// always use the caller's order; only the choice of which items survive
// compaction changes.
func (s *Sketch[T]) internalLess(a, b T) bool {
	if s.cfg.HRA {
		return s.kern.less(b, a)
	}
	return s.kern.less(a, b)
}

// invalidate marks the cached view stale after a write; the next view read
// rebuilds it into the spare's storage.
//
//req:noalloc
func (s *Sketch[T]) invalidate() { s.view = nil }

// Update inserts one item into the sketch, unless the order's table drops
// it (a NaN under LessF64; see kernels).
func (s *Sketch[T]) Update(x T) {
	if s.kern.admits(x) {
		s.update(x)
	}
}

// update inserts one item the table admits.
func (s *Sketch[T]) update(x T) {
	s.invalidate()
	if !s.hasMinMax {
		s.min, s.max = x, x
		s.hasMinMax = true
	} else {
		if s.kern.less(x, s.min) {
			s.min = x
		}
		if s.kern.less(s.max, x) {
			s.max = x
		}
	}
	if s.n+1 > s.bound {
		s.growTo(s.n + 1)
	}
	lv := &s.levels[0]
	if lv.sorted == len(lv.buf) && (lv.sorted == 0 || !s.internalLess(x, lv.buf[lv.sorted-1])) {
		// x extends the sorted prefix: ascending ingest never builds a tail,
		// making the pre-compaction settle free.
		lv.sorted++
	}
	lv.buf = append(lv.buf, x)
	s.retained++
	s.n++
	if len(lv.buf) > s.stats.MaxBufferLen {
		s.stats.MaxBufferLen = len(lv.buf)
	}
	if len(lv.buf) >= s.geom.b {
		s.compactCascade(0)
	}
}

// UpdateBatch inserts every item of xs the order's table admits,
// amortizing view invalidation, min/max tracking, bound checks, and
// compaction cascades across the batch. It is equivalent to calling Update
// once per item — bit-identical whenever no stream-length growth lands
// mid-batch; across a growth boundary the bound is raised once for the
// whole chunk rather than at the exact item, which preserves every
// guarantee but may retain a slightly different coreset than item-at-a-time
// insertion. The slice is only read; it is copied only when the table
// drops an item.
func (s *Sketch[T]) UpdateBatch(xs []T) {
	s.updateBatch(s.Table().Admitted(xs))
}

// updateBatch is UpdateBatch over items the table admits.
func (s *Sketch[T]) updateBatch(xs []T) {
	if len(xs) == 0 {
		return
	}
	s.invalidate()
	if !s.hasMinMax {
		s.min, s.max = xs[0], xs[0]
		s.hasMinMax = true
	}
	s.min, s.max = s.kern.minMax(xs, s.min, s.max)
	for i := 0; i < len(xs); {
		lv := &s.levels[0]
		room := s.geom.b - len(lv.buf)
		if room <= 0 {
			s.compactCascade(0)
			continue
		}
		take := len(xs) - i
		if take > room {
			take = room
		}
		if s.n+uint64(take) > s.bound && s.bound < maxBound {
			s.growTo(s.n + uint64(take))
			continue // growth changed the geometry; recompute the chunk
		}
		wasSorted := lv.sorted == len(lv.buf)
		lv.buf = append(lv.buf, xs[i:i+take]...)
		s.retained += take
		if wasSorted {
			// Extend the sorted prefix while the chunk continues it, so
			// ascending batches stay settle-free.
			lv.sorted = s.extendSorted(lv.buf, lv.sorted)
		}
		s.n += uint64(take)
		i += take
		if len(lv.buf) > s.stats.MaxBufferLen {
			s.stats.MaxBufferLen = len(lv.buf)
		}
		if len(lv.buf) >= s.geom.b {
			s.compactCascade(0)
		}
	}
}

// IngestRun feeds a run of items the caller has already screened with the
// order's table (Table.Admitted) into the sketch, without testing them
// again — the run-ingest hook of the registries' batched ingest and of
// Sharded's batch runs. A single-item run takes the scalar Update path
// (batch setup would dominate); longer runs take UpdateBatch's path so the
// monomorphic kernels apply. The two are bit-identical for one item, so the
// choice never changes sketch state.
func (s *Sketch[T]) IngestRun(run []T) {
	if len(run) == 1 {
		s.update(run[0])
		return
	}
	s.updateBatch(run)
}

// PrefetchHint reads the level-0 append position — the line an Update will
// write next — and returns what it finds (the zero value on an empty
// level 0). The batched keyed pipeline calls this for every resolved cell
// in its tight resolve loop and stores the result into scratch, forcing
// the level array and buffer lines of many keys to fault in concurrently
// instead of one dependent chain at a time during ingest. Pure read; no
// sketch state changes.
//
//req:noalloc
func (s *Sketch[T]) PrefetchHint() T {
	var hint T
	if len(s.levels) > 0 {
		if buf := s.levels[0].buf; len(buf) > 0 {
			hint = buf[len(buf)-1]
		}
	}
	return hint
}

// Count returns n, the total weight of items summarised (stream length, or
// the sum of merged stream lengths).
func (s *Sketch[T]) Count() uint64 { return s.n }

// Empty reports whether the sketch has seen no items.
func (s *Sketch[T]) Empty() bool { return s.n == 0 }

// Min returns the smallest item seen (exactly). ok is false when empty.
func (s *Sketch[T]) Min() (item T, ok bool) { return s.min, s.hasMinMax }

// Max returns the largest item seen (exactly). ok is false when empty.
func (s *Sketch[T]) Max() (item T, ok bool) { return s.max, s.hasMinMax }

// Config returns the normalized configuration of the sketch.
func (s *Sketch[T]) Config() Config { return s.cfg }

// Stats returns a copy of the instrumentation counters.
func (s *Sketch[T]) Stats() Stats { return s.stats }

// Bound returns the current stream-length bound N.
func (s *Sketch[T]) Bound() uint64 { return s.bound }

// K returns the current section size k.
func (s *Sketch[T]) K() int { return s.geom.k }

// BufferCapacity returns the current per-level buffer capacity B.
func (s *Sketch[T]) BufferCapacity() int { return s.geom.b }

// NumLevels returns the number of relative-compactors currently allocated.
func (s *Sketch[T]) NumLevels() int { return len(s.levels) }

// ItemsRetained returns the total number of items stored across all levels.
// It is an O(1) counter maintained on every append, compaction, merge, and
// reset (CheckInvariants cross-checks it against the per-level sum).
func (s *Sketch[T]) ItemsRetained() int { return s.retained }

// compactCascade compacts level h and propagates: each compaction emits
// items one level up, which may in turn exceed capacity. Levels are created
// on demand (Algorithm 2's Insert recursion, iteratively).
func (s *Sketch[T]) compactCascade(h int) {
	for ; h < len(s.levels); h++ {
		if len(s.levels[h].buf) >= s.geom.b {
			s.compactLevel(h)
		}
	}
}

// compactLevel performs one scheduled compaction at level h (Algorithm 1
// lines 5–11; Algorithm 3's ScheduledCompaction when the buffer holds more
// than B items after a merge).
//
// The buffer's unsorted tail is settled (sorted and merged behind the sorted
// prefix — never a full re-sort); the compacted region is every item above
// the lowest B−L slots, where L = sections·k is dictated by the schedule
// state. The surviving half of the region (even- or odd-indexed items, fair
// coin) moves to level h+1 with doubled weight.
func (s *Sketch[T]) compactLevel(h int) {
	c := &s.levels[h]
	if len(c.buf) > s.stats.MaxBufferLen {
		s.stats.MaxBufferLen = len(c.buf)
	}
	s.settleLevel(h)

	secs := schedule.SectionsFor(s.cfg.Schedule, c.state, s.geom.nsec)
	keep := s.geom.b - secs*s.geom.k
	if keep < 0 {
		keep = 0
	}
	if keep > len(c.buf) {
		// Defensive: cannot happen for scheduled compactions (caller
		// checks len ≥ b ≥ keep), but keeps the helper total.
		keep = len(c.buf)
	}
	s.emitHalf(h, keep)
	c = &s.levels[h] // emitHalf may have grown s.levels and moved it
	c.state = c.state.Next()
	c.numCompactions++
	s.stats.Compactions++
}

// specialCompactLevel performs the Appendix D special compaction at level h:
// compact everything above the lowest B/2 items, leaving at most B/2 (+1 for
// parity) behind. It is a no-op when the buffer holds ≤ B/2 items. Returns
// whether a compaction was performed.
func (s *Sketch[T]) specialCompactLevel(h int) bool {
	c := &s.levels[h]
	keep := s.geom.b / 2
	if len(c.buf) <= keep {
		return false
	}
	s.settleLevel(h)
	s.emitHalf(h, keep)
	c = &s.levels[h] // emitHalf may have grown s.levels and moved it
	c.state = c.state.Next()
	c.numCompactions++
	s.stats.SpecialCompactions++
	return true
}

// emitHalf compacts the (already sorted) region buf[keep:] of level h:
// every other item of the region is promoted to level h+1, the rest are
// discarded, and the buffer is truncated to keep items. The promoted items
// are themselves sorted (every other item of a sorted region), so they are
// merged into level h+1's sorted buffer in O(b) — the next level is never
// re-sorted.
//
// The region is forced to even length by retaining one extra item, so each
// compaction consumes 2m items and emits m of double weight: total weight
// Σ_h 2^h·|buf_h| is conserved exactly (a checked invariant). The paper
// permits odd regions, whose compaction gains or loses one unit of
// weight; keeping the region even costs at most one retained slot and lets
// every query and decoder rely on the retained weight equalling n.
func (s *Sketch[T]) emitHalf(h, keep int) {
	c := &s.levels[h]
	if (len(c.buf)-keep)%2 != 0 {
		keep++
	}
	if len(c.buf) <= keep {
		return
	}
	offset := 0
	if !s.cfg.DetCoin {
		s.stats.CoinFlips++
		if s.rnd.Coin() {
			offset = 1
		}
	}
	if h+1 >= len(s.levels) {
		// Algorithm 2 opens a compactor when the level below first
		// compacts.
		s.resizeLevels(h + 2)
	}
	// The next level can carry an unsorted tail (direct weighted inserts);
	// settle it before merging the emission. This must precede the scratch
	// use below — settleLevel claims s.scratch too.
	s.settleLevel(h + 1)
	c = &s.levels[h] // re-take: resizeLevels may have moved the levels array
	region := c.buf[keep:]
	s.scratch = s.scratch[:0]
	for i := offset; i < len(region); i += 2 {
		s.scratch = append(s.scratch, region[i])
	}
	// Scrub the abandoned tail so the buffer never keeps pointer-bearing
	// items reachable past its length.
	clear(c.buf[keep:])
	s.retained -= len(c.buf) - keep
	c.buf = c.buf[:keep]
	if c.sorted > keep {
		c.sorted = keep
	}
	// Grow the next level for the emission first: the merge kernel needs
	// the capacity (mergeSortedInto's contract).
	next := &s.levels[h+1]
	next.buf = slices.Grow(next.buf, len(s.scratch))
	next.buf = s.mergeInternalInto(next.buf, s.scratch)
	next.sorted = len(next.buf)
	s.retained += len(s.scratch)
	if len(next.buf) > s.stats.MaxBufferLen {
		s.stats.MaxBufferLen = len(next.buf)
	}
}

// resizeLevels sets the level count to n. A level cut off is scrubbed and
// its buffer kept past len(s.levels); a level added later starts empty, on
// the buffer kept at its index if there is one.
func (s *Sketch[T]) resizeLevels(n int) {
	for h := n; h < len(s.levels); h++ {
		clear(s.levels[h].buf)
		s.levels[h] = compactor[T]{buf: s.levels[h].buf[:0]}
	}
	if n > len(s.levels) {
		s.levels = slices.Grow(s.levels, n-len(s.levels))
	}
	s.levels = s.levels[:n]
}

// growTo raises the stream-length bound N until it is at least need,
// squaring per Section 5 / Appendix D: special-compact every level (except
// the top), square N, recompute the geometry, then re-compact any level left
// at or above the new capacity.
func (s *Sketch[T]) growTo(need uint64) {
	for s.bound < need {
		for h := 0; h < len(s.levels)-1; h++ {
			s.specialCompactLevel(h)
		}
		s.bound = squareBound(s.bound)
		s.geom = s.cfg.geometryFor(s.bound)
		s.stats.Growths++
		s.compactCascade(0)
		if s.bound == maxBound {
			return
		}
	}
}

// Reset returns the sketch to its empty state, keeping every level's
// buffer (scrubbed) and preserving the configuration. The random stream
// continues (it is not re-seeded), so a reset sketch is statistically fresh
// but not bit-identical to a newly constructed one.
func (s *Sketch[T]) Reset() {
	s.invalidate()
	// Drop the recycled view outright: its arrays hold items from the old
	// stream, which pointer-bearing item types should not keep reachable.
	s.spare = nil
	s.n = 0
	s.retained = 0
	s.bound = s.cfg.initialBound()
	s.geom = s.cfg.geometryFor(s.bound)
	s.resizeLevels(0) // scrub every level ...
	s.resizeLevels(1) // ... and reopen level 0 on its kept buffer
	var zero T
	s.min, s.max = zero, zero
	s.hasMinMax = false
	s.stats = Stats{}
}

// Clone returns a deep copy of the sketch sharing no mutable state with s.
// The clone's random source continues s's stream (state copied), so the
// clone and the original behave bit-for-bit identically on identical
// subsequent input. The cached sorted view is not carried over; the clone
// rebuilds it on first query. Clone is a read-only operation on s; each
// level's buffer is copied at its length.
func (s *Sketch[T]) Clone() *Sketch[T] {
	c := *s
	c.rnd = rng.New(0)
	c.rnd.Restore(s.rnd.State())
	c.levels = make([]compactor[T], len(s.levels))
	for h := range s.levels {
		c.levels[h] = s.levels[h]
		c.levels[h].buf = slices.Clone(s.levels[h].buf)
	}
	c.view = nil
	// Never share transient state with the original: the clone grows its
	// own view storage, union and merge scratch on first use.
	c.spare = nil
	c.union = nil
	c.scratch = nil
	c.mergeBuf = nil
	c.kwayCurs = nil
	c.stage = nil
	return &c
}

// CopyFrom makes s a deep copy of src (same contract as src.Clone(), but in
// place): s summarises the same stream, continues the same random stream, and
// shares no mutable state with src. Unlike Clone it reuses s's level
// buffers and cached-view arrays, so refreshing a long-lived staging sketch
// from a live one allocates nothing once capacities have grown to match.
// The sharded wrapper's snapshot rebuild uses it to re-stage shard state
// every epoch without per-epoch garbage. s.CopyFrom(s) is a no-op.
func (s *Sketch[T]) CopyFrom(src *Sketch[T]) {
	if s == src {
		return
	}
	s.kern = src.kern
	s.cfg = src.cfg
	if s.rnd == nil {
		s.rnd = rng.New(0)
	}
	s.rnd.Restore(src.rnd.State())
	s.n, s.bound, s.geom = src.n, src.bound, src.geom
	s.min, s.max, s.hasMinMax = src.min, src.max, src.hasMinMax
	s.stats = src.stats
	s.retained = src.retained
	// One copy per level into the reused buffer; only what shrank needs
	// clearing, as the spare capacity past it is already zero.
	s.resizeLevels(len(src.levels))
	for h := range src.levels {
		buf, from := s.levels[h].buf, src.levels[h].buf
		if len(buf) > len(from) {
			clear(buf[len(from):])
		}
		s.levels[h] = src.levels[h]
		s.levels[h].buf = append(buf[:0], from...)
	}
	s.invalidate()
}
