package tenant

import (
	"hash/maphash"
	"sync"
	"testing"
)

// payload is a test entry: records its init seq and how many times it was
// recycled, so tests can prove arena reuse vs fresh allocation.
type payload struct {
	seq     uint64
	reuses  int
	updates int
}

func newTestMap(cfg Config) *Map[uint64, payload] {
	return NewMap[uint64, payload](cfg,
		func(_ *Shard[uint64, payload], e *payload, seq uint64) { *e = payload{seq: seq} },
		func(e *payload) { e.reuses++; e.updates = 0 },
	)
}

func touch(m *Map[uint64, payload], key uint64, now int64) *payload {
	sh := m.Lock(key)
	defer sh.Unlock()
	e, _ := m.GetOrCreate(sh, key, now)
	e.updates++
	return e
}

func lookup(m *Map[uint64, payload], key uint64, now int64) *payload {
	sh := m.Lock(key)
	defer sh.Unlock()
	return m.Get(sh, key, now)
}

func TestGetOrCreateAndGet(t *testing.T) {
	m := newTestMap(Config{Shards: 4})
	if got := lookup(m, 7, 0); got != nil {
		t.Fatalf("lookup of absent key returned %v", got)
	}
	e := touch(m, 7, 10)
	if e.updates != 1 {
		t.Fatalf("updates = %d, want 1", e.updates)
	}
	if e2 := touch(m, 7, 20); e2 != e {
		t.Fatalf("second GetOrCreate returned a different cell")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	for k := uint64(0); k < 100; k++ {
		touch(m, k, 30)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
}

func TestSeqUnique(t *testing.T) {
	m := newTestMap(Config{Shards: 8})
	seen := make(map[uint64]bool)
	for k := uint64(0); k < 1000; k++ {
		e := touch(m, k, 0)
		if seen[e.seq] {
			t.Fatalf("seq %d assigned twice", e.seq)
		}
		seen[e.seq] = true
	}
}

func TestDeleteRecyclesCell(t *testing.T) {
	m := newTestMap(Config{Shards: 1})
	e1 := touch(m, 1, 0)
	sh := m.Lock(1)
	if !m.Delete(sh, 1) {
		t.Fatal("Delete of resident key returned false")
	}
	if m.Delete(sh, 1) {
		t.Fatal("Delete of absent key returned true")
	}
	sh.Unlock()
	// The next create on this shard must reuse the freed cell.
	e2 := touch(m, 2, 0)
	if e1 != e2 {
		t.Fatal("freed cell was not recycled")
	}
	if e2.reuses != 1 {
		t.Fatalf("reuse hook ran %d times, want 1", e2.reuses)
	}
	if got := m.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

func TestTTLLazyEviction(t *testing.T) {
	m := newTestMap(Config{Shards: 1, TTL: 100})
	touch(m, 1, 0)
	if lookup(m, 1, 99) == nil {
		t.Fatal("entry evicted before TTL")
	}
	// The lookup at t=99 refreshed the TTL; expiry counts from there.
	if lookup(m, 1, 198) == nil {
		t.Fatal("entry evicted before refreshed TTL")
	}
	if lookup(m, 1, 298) != nil {
		t.Fatal("expired entry still visible")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after lazy eviction, want 0", m.Len())
	}
	// GetOrCreate over an expired entry restarts it in place.
	e := touch(m, 2, 0)
	if e.updates != 1 {
		t.Fatalf("updates = %d, want 1", e.updates)
	}
	e.updates = 5
	sh := m.Lock(2)
	e2, created := m.GetOrCreate(sh, 2, 1000)
	sh.Unlock()
	if !created {
		t.Fatal("expired entry not reported as created")
	}
	if e2 != e {
		t.Fatal("expired entry restarted in a different cell")
	}
	// The cell was recycled once at creation (key 1's freed cell) and once
	// more by the in-place restart.
	if e2.updates != 0 || e2.reuses != 2 {
		t.Fatalf("restart did not run the reuse hook: %+v", *e2)
	}
}

func TestExpireNow(t *testing.T) {
	m := newTestMap(Config{Shards: 4, TTL: 100})
	for k := uint64(0); k < 64; k++ {
		touch(m, k, int64(k)) // staggered touch times 0..63
	}
	// At now=120, keys touched at t<=20 have idle age >= 100 and expire.
	if got := m.ExpireNow(120); got != 21 {
		t.Fatalf("ExpireNow reclaimed %d, want 21", got)
	}
	if m.Len() != 43 {
		t.Fatalf("Len = %d, want 43", m.Len())
	}
	// Without a TTL the sweep is a no-op.
	m2 := newTestMap(Config{})
	touch(m2, 1, 0)
	if got := m2.ExpireNow(1 << 60); got != 0 {
		t.Fatalf("ExpireNow without TTL reclaimed %d", got)
	}
}

func TestMaxEntriesClockHand(t *testing.T) {
	m := newTestMap(Config{Shards: 1, MaxEntries: 4})
	for k := uint64(0); k < 4; k++ {
		touch(m, k, 0)
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	// All four cells carry fresh reference bits, so the first capped insert
	// costs one full clearing lap and then evicts the first arena cell
	// (key 0): with no accesses between laps everyone looks equally cold.
	touch(m, 100, 2)
	if m.Len() != 4 {
		t.Fatalf("Len = %d after capped insert, want 4", m.Len())
	}
	if lookup(m, 0, 3) != nil {
		t.Fatal("expected the uniformly-cold first cell to be evicted")
	}
	if got := m.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	// Second chance proper: key 1 is re-touched after the clearing lap, so
	// its bit is set again while keys 2 and 3 stay cleared. The hand (now
	// past cell 0) must skip key 1 and take key 2.
	lookup(m, 1, 4)
	touch(m, 200, 5)
	if lookup(m, 1, 6) == nil {
		t.Fatal("hot key evicted while cold keys were available")
	}
	if lookup(m, 2, 6) != nil {
		t.Fatal("expected the cold key under the hand to be evicted")
	}
	if lookup(m, 200, 6) == nil {
		t.Fatal("newly inserted key missing")
	}
	// Churn far past capacity: resident count stays capped and the arena
	// stops growing (all creates come from the freelist).
	for k := uint64(1000); k < 2000; k++ {
		touch(m, k, 10)
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d after churn, want 4", m.Len())
	}
	sh := m.LockShard(0)
	used := sh.used
	sh.Unlock()
	if used > 8 {
		t.Fatalf("arena grew to %d cells under churn; recycling broken", used)
	}
}

func TestVisit(t *testing.T) {
	m := newTestMap(Config{Shards: 2, TTL: 100})
	for k := uint64(0); k < 10; k++ {
		touch(m, k, 0)
	}
	touch(m, 10, 500) // everything else will be expired at now=500
	got := map[uint64]bool{}
	m.Visit(500, func(key uint64, e *payload) bool {
		got[key] = true
		return true
	})
	if len(got) != 1 || !got[10] {
		t.Fatalf("Visit saw %v, want only key 10", got)
	}
	// Early stop.
	calls := 0
	m2 := newTestMap(Config{Shards: 1})
	for k := uint64(0); k < 10; k++ {
		touch(m2, k, 0)
	}
	m2.Visit(0, func(uint64, *payload) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Visit after stop made %d calls, want 1", calls)
	}
}

func TestReset(t *testing.T) {
	m := newTestMap(Config{Shards: 2})
	for k := uint64(0); k < 100; k++ {
		touch(m, k, 0)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", m.Len())
	}
	touch(m, 1, 0)
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestConcurrent(t *testing.T) {
	m := newTestMap(Config{Shards: 4, MaxEntries: 256, TTL: 1 << 40})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64(g*1000 + i%500)
				touch(m, k, int64(i))
				if i%3 == 0 {
					lookup(m, k, int64(i))
				}
				if i%97 == 0 {
					sh := m.Lock(k)
					m.Delete(sh, k)
					sh.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() > 256+4 { // per-shard cap is ceil(256/4); slight slack is a bug
		t.Fatalf("Len = %d exceeds cap", m.Len())
	}
}

// TestKeyHasher checks the per-Map key hash: deterministic per seed, no
// allocation for string and integer keys (under every build, purego
// included), and sequential keys spread evenly over the shard bits.
func TestKeyHasher(t *testing.T) {
	seed := maphash.MakeSeed()
	hs, hu, hi := keyHasher[string](), keyHasher[uint64](), keyHasher[int32]()
	if hs(seed, "tenant-1") != hs(seed, "tenant-1") || hu(seed, 7) != hu(seed, 7) || hi(seed, -7) != hi(seed, -7) {
		t.Fatal("key hash is not deterministic for a fixed seed")
	}
	var sink uint64
	if avg := testing.AllocsPerRun(100, func() {
		sink += hs(seed, "tenant-0000042") + hu(seed, 42) + hi(seed, 42)
	}); avg != 0 {
		t.Fatalf("key hash allocates %v allocs/op", avg)
	}
	const n, shards = 1 << 14, 8
	var perShard [shards]int
	for k := uint64(0); k < n; k++ {
		perShard[hu(seed, k)%shards]++
	}
	for s, c := range perShard {
		if c < n/shards*3/4 || c > n/shards*5/4 {
			t.Fatalf("shard %d holds %d of %d sequential keys", s, c, n)
		}
	}
	_ = sink
}
