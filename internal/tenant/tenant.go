// Package tenant implements the sharded keyed-entry machinery underneath
// the root package's multi-tenant registries: a concurrent map from keys to
// arena-allocated entries with per-shard locking, slab-style block arenas,
// a per-shard freelist that recycles evicted entries (storage capacity and
// all) instead of handing them to the GC, and combined TTL + max-entries
// eviction driven by a clock-hand (second-chance) sweep.
//
// # Memory model
//
// Entries live in fixed-size blocks ([blockSize]cell arrays) owned by their
// shard; a cell is never individually allocated or freed. Eviction unlinks
// the cell from the shard map and pushes it onto the shard's freelist; the
// next creation pops it and calls the owner's reuse hook, which resets the
// payload in place — for a registry entry that means core.Sketch.Reset,
// which keeps the sketch's grown level buffers. Under key churn the steady
// state therefore allocates nothing per create/evict cycle: the arena and
// the buffers inside it are recycled, not reallocated.
//
// # Eviction
//
// Each cell carries a last-touch timestamp and a reference bit, both
// refreshed on every access. When a creation would push a shard past its
// entry budget, a clock hand walks the shard's arena cells in order:
// TTL-expired cells are evicted on sight; referenced cells get their bit
// cleared and one more round of grace; unreferenced cells are evicted.
// TTL expiry is additionally enforced lazily (an expired entry found by a
// lookup is evicted on the spot, and a creation over an expired entry
// restarts it in place) and eagerly by ExpireNow sweeps.
//
// Timestamps are caller-supplied nanoseconds: the registry layer owns the
// clock (wall time by default, synthetic in tests), this package only
// compares the numbers it is handed.
//
// # Locking
//
// One mutex per shard guards that shard's map, arena, freelist, and hand.
// Lock returns the locked shard for a key (the +req:locksAcquired
// contract); every entry operation requires it. The Aux field gives the
// owner a per-shard slot under the same lock — the registries keep there
// the core.Work that the shard lends to every sketch it holds.
package tenant

import (
	"hash/maphash"
	"runtime"
	"sync"
)

// blockSize is the arena block length in cells. 256 cells of a
// sketch-sized payload is a few tens of kilobytes per block: large enough
// to amortize block allocation to noise, small enough that a lightly
// populated shard wastes little.
const blockSize = 256

// Config sizes a Map.
type Config struct {
	// Shards is the shard count, rounded up to a power of two; zero means
	// GOMAXPROCS-scaled.
	Shards int
	// MaxEntries caps the total resident entry count, split evenly across
	// shards (each shard enforces ceil(MaxEntries/shards)). Zero means
	// unbounded.
	MaxEntries int
	// TTL is the idle time-to-live in nanoseconds; entries untouched for
	// at least TTL are evictable and treated as absent by lookups. Zero
	// means no TTL.
	TTL int64
}

// cell is one arena slot: the owner's payload plus the bookkeeping the
// map and the eviction hand need. Cells are addressed both by the shard
// map (by key) and by the clock hand (by arena position).
type cell[K comparable, E any] struct {
	val   E
	key   K
	touch int64 // last access, caller-clock nanoseconds
	live  bool  // resident (in the shard map) vs free
	ref   bool  // second-chance bit, set on every access
}

// Shard is one stripe of a Map: a keyed view of its arena cells behind one
// mutex.
type Shard[K comparable, E any] struct {
	mu sync.Mutex
	// +req:guardedBy(mu)
	m map[K]*cell[K, E]
	// blocks is the cell arena; cells are handed out in order, so
	// blocks[i/blockSize].cells[i%blockSize] is the i-th ever allocated.
	//
	// +req:guardedBy(mu)
	blocks []*block[K, E]
	// +req:guardedBy(mu)
	used int // cells handed out (live + free), ≤ len(blocks)·blockSize
	// +req:guardedBy(mu)
	free []*cell[K, E]
	// hand is the clock-hand position in [0, used): the next arena cell
	// the eviction sweep will examine.
	//
	// +req:guardedBy(mu)
	hand int
	// +req:guardedBy(mu)
	evictions uint64
	// Aux is a slot for the Map's owner, guarded by the shard lock; the
	// registries keep in it the Work the shard's sketches borrow.
	//
	// +req:guardedBy(mu)
	Aux any

	idx int // this shard's index (immutable after init)
}

// block is one arena allocation: blockSize cells in a single backing
// array, so cell pointers are stable for the life of the shard.
type block[K comparable, E any] struct {
	cells [blockSize]cell[K, E]
}

// Map is a sharded keyed arena map. K is the tenant key; E is the payload
// embedded by value in each arena cell.
type Map[K comparable, E any] struct {
	shards []*Shard[K, E]
	mask   uint64
	hseed  maphash.Seed
	hash   func(maphash.Seed, K) uint64 // keyHasher[K]

	maxPerShard int // 0 = unbounded
	ttl         int64

	// initCell initializes a freshly allocated payload of shard sh; seq
	// is a map-unique allocation sequence number (the registry derives
	// per-key sketch seeds from it). reuseCell resets a recycled payload
	// in place, keeping its grown storage.
	initCell  func(sh *Shard[K, E], e *E, seq uint64)
	reuseCell func(e *E)
}

// NewMap returns an empty Map. initCell runs once per arena-fresh cell,
// with the cell's shard (whose Aux the owner may read and set); reuseCell
// runs on every freelist recycle (and on in-place restart of a TTL-expired
// entry). Both run under the owning shard's lock.
func NewMap[K comparable, E any](cfg Config, initCell func(sh *Shard[K, E], e *E, seq uint64), reuseCell func(e *E)) *Map[K, E] {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = int(ceilPow2(uint64(n)))
	m := &Map[K, E]{
		shards:    make([]*Shard[K, E], n),
		mask:      uint64(n - 1),
		hseed:     maphash.MakeSeed(),
		hash:      keyHasher[K](),
		ttl:       cfg.TTL,
		initCell:  initCell,
		reuseCell: reuseCell,
	}
	if cfg.MaxEntries > 0 {
		m.maxPerShard = (cfg.MaxEntries + n - 1) / n
		if m.maxPerShard < 1 {
			m.maxPerShard = 1
		}
	}
	for i := range m.shards {
		m.shards[i] = &Shard[K, E]{m: make(map[K]*cell[K, E]), idx: i}
	}
	return m
}

// ceilPow2 rounds n up to a power of two (n ≥ 1).
func ceilPow2(n uint64) uint64 {
	if n <= 1 {
		return 1
	}
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards returns the shard count.
func (m *Map[K, E]) NumShards() int { return len(m.shards) }

// CopyHashSeed adopts src's key-hash seed, so both maps send every key to
// the same shard index — the determinism hook differential tests use to
// compare two identically-fed maps cell for cell (shard assignment drives
// allocation sequence numbers, and with them any seq-derived payload
// state). Call it before the first key is inserted.
func (m *Map[K, E]) CopyHashSeed(src *Map[K, E]) { m.hseed = src.hseed }

// Lock locks and returns the shard owning key. Every entry operation
// takes the returned shard; call Unlock when done.
//
// +req:locksAcquired(return.mu)
func (m *Map[K, E]) Lock(key K) *Shard[K, E] {
	sh := m.shards[m.hash(m.hseed, key)&m.mask]
	sh.mu.Lock()
	return sh
}

// keyHasher picks, once per Map, the key hash behind both shard routing
// (Lock) and batch grouping (PlanBatch), so the two always agree on a key's
// shard. Strings and fixed-width integers hash without reflection. Any
// other key type goes through maphash.Comparable, which under the purego
// build tag hashes through reflect and allocates per key.
func keyHasher[K comparable]() func(maphash.Seed, K) uint64 {
	var h any
	switch any(*new(K)).(type) {
	case string:
		h = maphash.String
	case uint64:
		h = mixKey
	case int64:
		h = func(s maphash.Seed, k int64) uint64 { return mixKey(s, uint64(k)) }
	case int:
		h = func(s maphash.Seed, k int) uint64 { return mixKey(s, uint64(k)) }
	case uint:
		h = func(s maphash.Seed, k uint) uint64 { return mixKey(s, uint64(k)) }
	case int32:
		h = func(s maphash.Seed, k int32) uint64 { return mixKey(s, uint64(k)) }
	case uint32:
		h = func(s maphash.Seed, k uint32) uint64 { return mixKey(s, uint64(k)) }
	default:
		return maphash.Comparable[K]
	}
	return h.(func(maphash.Seed, K) uint64)
}

// mixKey hashes a fixed-width integer key: the key xored with a value of
// the seed (maphash.String hashes no bytes of an empty string), then
// splitmix64's finalizer, a bijective avalanche mix.
func mixKey(seed maphash.Seed, k uint64) uint64 {
	x := k ^ maphash.String(seed, "")
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// LockShard locks and returns shard i (for whole-map sweeps and exports).
//
// +req:locksAcquired(return.mu)
func (m *Map[K, E]) LockShard(i int) *Shard[K, E] {
	sh := m.shards[i]
	sh.mu.Lock()
	return sh
}

// Unlock releases the shard lock.
//
// +req:locksRequired(sh.mu)
// +req:locksReleased(sh.mu)
func (sh *Shard[K, E]) Unlock() { sh.mu.Unlock() }

// expired reports whether a cell's idle time has exceeded the TTL at
// caller-clock time now.
func (m *Map[K, E]) expired(c *cell[K, E], now int64) bool {
	return m.ttl > 0 && now-c.touch >= m.ttl
}

// Get returns the entry for key, refreshing its TTL and reference bit, or
// nil when the key is absent. A TTL-expired entry counts as absent and is
// evicted on the spot (its storage goes to the freelist).
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) Get(sh *Shard[K, E], key K, now int64) *E {
	c := sh.m[key]
	if c == nil {
		return nil
	}
	if m.expired(c, now) {
		m.evict(sh, c)
		return nil
	}
	c.touch = now
	c.ref = true
	return &c.val
}

// Peek returns the entry for key without refreshing TTL or reference
// state (expired entries still read as absent, but are left in place).
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) Peek(sh *Shard[K, E], key K, now int64) *E {
	c := sh.m[key]
	if c == nil || m.expired(c, now) {
		return nil
	}
	return &c.val
}

// GetOrCreate returns the entry for key, creating it if absent (lazy
// per-key growth: the first Update of a key is what materializes its
// entry). A TTL-expired existing entry is restarted in place through the
// reuse hook — same cell, same storage, fresh logical state. Creation
// over a full shard first runs the eviction hand; created reports whether
// the returned entry is logically new (fresh, recycled, or restarted).
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) GetOrCreate(sh *Shard[K, E], key K, now int64) (e *E, created bool) {
	if c := sh.m[key]; c != nil {
		if m.expired(c, now) {
			m.reuseCell(&c.val)
			c.touch = now
			c.ref = true
			return &c.val, true
		}
		c.touch = now
		c.ref = true
		return &c.val, false
	}
	if m.maxPerShard > 0 && len(sh.m) >= m.maxPerShard {
		m.evictOne(sh, now)
	}
	c := m.alloc(sh)
	c.key = key
	c.touch = now
	c.ref = true
	c.live = true
	sh.m[key] = c
	return &c.val, true
}

// alloc hands out a cell: freelist first (recycling storage through the
// reuse hook), then the next arena slot (growing the arena by one block
// when exhausted, the only allocation on this path).
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) alloc(sh *Shard[K, E]) *cell[K, E] {
	if n := len(sh.free); n > 0 {
		c := sh.free[n-1]
		sh.free = sh.free[:n-1]
		m.reuseCell(&c.val)
		return c
	}
	if sh.used == len(sh.blocks)*blockSize {
		sh.blocks = append(sh.blocks, new(block[K, E]))
	}
	c := &sh.blocks[sh.used/blockSize].cells[sh.used%blockSize]
	// seq interleaves shards so it is map-unique: shard idx in the low
	// bits, per-shard arena position above.
	m.initCell(sh, &c.val, uint64(sh.used)*uint64(len(m.shards))+uint64(sh.idx))
	sh.used++
	return c
}

// evict unlinks a live cell and pushes it onto the freelist. The payload
// keeps its storage; the reuse hook will reset it when the cell is handed
// out again.
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) evict(sh *Shard[K, E], c *cell[K, E]) {
	delete(sh.m, c.key)
	var zeroK K
	c.key = zeroK // drop pointer-bearing keys (strings) for the GC
	c.live = false
	c.ref = false
	sh.free = append(sh.free, c)
	sh.evictions++
}

// evictOne advances the clock hand until it reclaims one cell:
// TTL-expired cells go immediately, referenced cells lose their bit and
// get one more lap, unreferenced cells go. Two full laps bound the walk
// (after one lap every bit is clear, so the second lap must reclaim).
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) evictOne(sh *Shard[K, E], now int64) bool {
	if sh.used == 0 {
		return false
	}
	for range 2 * sh.used {
		if sh.hand >= sh.used {
			sh.hand = 0
		}
		c := &sh.blocks[sh.hand/blockSize].cells[sh.hand%blockSize]
		sh.hand++
		if !c.live {
			continue
		}
		if m.expired(c, now) || !c.ref {
			m.evict(sh, c)
			return true
		}
		c.ref = false
	}
	return false
}

// Delete removes key's entry, recycling its cell. It reports whether the
// key was resident.
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) Delete(sh *Shard[K, E], key K) bool {
	c := sh.m[key]
	if c == nil {
		return false
	}
	m.evict(sh, c)
	return true
}

// Len returns the number of resident entries. Entries past their TTL but
// not yet swept still count (lookups treat them as absent; ExpireNow
// reclaims them).
func (m *Map[K, E]) Len() int {
	n := 0
	for i := range m.shards {
		sh := m.LockShard(i)
		n += len(sh.m)
		sh.Unlock()
	}
	return n
}

// Evictions returns the total number of cells reclaimed so far (TTL,
// capacity, and explicit deletes all count).
func (m *Map[K, E]) Evictions() uint64 {
	var n uint64
	for i := range m.shards {
		sh := m.LockShard(i)
		n += sh.evictions
		sh.Unlock()
	}
	return n
}

// ExpireNow sweeps every shard's arena and evicts every TTL-expired
// entry, returning how many it reclaimed. A no-op without a TTL.
func (m *Map[K, E]) ExpireNow(now int64) int {
	if m.ttl == 0 {
		return 0
	}
	total := 0
	for i := range m.shards {
		sh := m.LockShard(i)
		total += m.expireShard(sh, now)
		sh.Unlock()
	}
	return total
}

// expireShard evicts every expired cell of one shard.
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) expireShard(sh *Shard[K, E], now int64) int {
	n := 0
	for i := 0; i < sh.used; i++ {
		c := &sh.blocks[i/blockSize].cells[i%blockSize]
		if c.live && m.expired(c, now) {
			m.evict(sh, c)
			n++
		}
	}
	return n
}

// Visit calls fn for every resident, non-expired entry, shard by shard in
// arena order, holding the owning shard's lock across each call. fn must
// not retain the entry pointer past its return and must not call back
// into the Map (the shard lock is held). Returning false stops the walk.
// Visits neither refresh TTLs nor set reference bits, so a bulk export
// does not perturb eviction state.
func (m *Map[K, E]) Visit(now int64, fn func(key K, e *E) bool) {
	for i := range m.shards {
		sh := m.LockShard(i)
		more := m.VisitShard(sh, now, func(_ int, key K, e *E) bool { return fn(key, e) })
		sh.Unlock()
		if !more {
			return
		}
	}
}

// VisitShard is Visit over the one shard sh, whose lock the caller holds:
// it walks sh's arena cells in order and passes each entry's cell, its
// arena position, which stays the entry's until the entry is evicted. It
// reports whether the walk ran to the end.
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) VisitShard(sh *Shard[K, E], now int64, fn func(cell int, key K, e *E) bool) bool {
	for i := 0; i < sh.used; i++ {
		c := &sh.blocks[i/blockSize].cells[i%blockSize]
		if !c.live || m.expired(c, now) {
			continue
		}
		if !fn(i, c.key, &c.val) {
			return false
		}
	}
	return true
}

// Reset empties the map: every shard's entries, arena, freelist and Aux
// are dropped (they go to the GC; a Reset is a teardown, not an eviction).
// The owner sets Aux again when the shard's next cell is initialized.
func (m *Map[K, E]) Reset() {
	for i := range m.shards {
		sh := m.LockShard(i)
		m.resetShard(sh)
		sh.Unlock()
	}
}

// resetShard empties one shard.
//
// +req:locksRequired(sh.mu)
func (m *Map[K, E]) resetShard(sh *Shard[K, E]) {
	clear(sh.m)
	sh.blocks = nil
	sh.used = 0
	sh.free = nil
	sh.hand = 0
	sh.Aux = nil
}
