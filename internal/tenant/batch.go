package tenant

// Shard-grouped batch planning: the registry's UpdatePairs front hands a
// whole (key, item) batch to PlanBatch, which hashes every key in one pass,
// links same-key items into runs (preserving each key's input order), and
// counting-sorts the runs by owning shard. The caller then walks the runs
// shard by shard, taking each shard lock once per batch and resolving each
// distinct key's cell once per run (GetOrCreate) instead of once per item,
// so lazy creation, the TTL touch, the reference bit and any clock-hand
// eviction are charged per run. Entry state after a batch is therefore
// identical to the per-item path whenever each key occurs in at most one
// run per batch, which PlanBatch guarantees.
//
// All planning state lives in a caller-owned Batch, grown on demand and
// reused verbatim across batches — the steady state allocates nothing.

// batchRun is one distinct key's run within a batch: a linked chain of
// input indices (through Batch.next) in input order.
type batchRun struct {
	head  int32 // input index of the run's first item
	tail  int32 // input index of the run's last item (chain append point)
	n     int32 // items in the run
	slot  int32 // claimed probe-table slot, for O(runs) clearing
	shard int32 // owning shard index
}

// Batch is the reusable scratch of one batched-ingest plan. The zero value
// is ready to use; a Batch is not safe for concurrent use (the registry
// pools them). It retains its grown capacity across PlanBatch calls.
type Batch[K comparable] struct {
	hashes []uint64   // per-item key hash
	next   []int32    // next[i] = next input index of i's run, -1 at tail (fragmented runs only)
	table  []int32    // open-addressing probe table: run index or -1
	runs   []batchRun // one per distinct key, in first-occurrence order
	order  []int32    // run indices, counting-sorted by shard (stable)
	counts []int32    // per-shard histogram / offset scratch
}

// maxBatch bounds one batch so every index fits an int32 with headroom.
const maxBatch = 1 << 30

// PlanBatch groups keys into per-shard, per-key runs inside b, replacing
// any previous plan. Scratch is grown on first use and reused afterwards;
// planning a batch no larger than any earlier one allocates nothing.
func (m *Map[K, E]) PlanBatch(b *Batch[K], keys []K) {
	n := len(keys)
	if n > maxBatch {
		panic("tenant: batch larger than 1<<30 items")
	}
	b.reset(n, len(m.shards))
	if n == 0 {
		return
	}
	// Aggregated flushes arrive key-grouped, so consecutive equal keys
	// are the common case there: reuse the previous hash instead of
	// rehashing (an equality check is several times cheaper than a
	// maphash over string bytes, and equal keys hash equal by
	// definition).
	b.hashes[0] = m.hash(m.hseed, keys[0])
	for i := 1; i < n; i++ {
		if keys[i] == keys[i-1] {
			b.hashes[i] = b.hashes[i-1]
			continue
		}
		b.hashes[i] = m.hash(m.hseed, keys[i])
	}
	b.group(keys, m.mask)
	b.sortRunsByShard(len(m.shards))
}

// reset clears the previous plan and ensures capacity for n items across
// nshards shards. Clearing the probe table walks the previous plan's
// claimed slots — O(runs), not O(table).
func (b *Batch[K]) reset(n, nshards int) {
	for i := range b.runs {
		b.table[b.runs[i].slot] = -1
	}
	b.runs = b.runs[:0]
	if cap(b.hashes) < n {
		b.hashes = make([]uint64, n)
		b.next = make([]int32, n)
		b.order = make([]int32, n)
		b.runs = make([]batchRun, 0, n)
	}
	b.hashes = b.hashes[:n]
	b.next = b.next[:n]
	if want := probeSize(n); len(b.table) < want {
		b.table = make([]int32, want)
		for i := range b.table {
			b.table[i] = -1
		}
	}
	if cap(b.counts) < nshards+1 {
		b.counts = make([]int32, nshards+1)
	}
}

// probeSize returns the open-addressing table size for n keys: the power of
// two ≥ 2n, so the load factor never exceeds ½.
func probeSize(n int) int {
	return int(ceilPow2(uint64(2 * n)))
}

// group links same-key items into runs by probing the table with each
// item's hash. Equal keys chain onto the existing run in input order; new
// keys claim the probe slot and open a run. Hashes are compared before
// keys, so a full key comparison happens at most once per item on the
// non-colliding path. An item equal to its predecessor extends the
// predecessor's run directly — no table probe — which makes key-grouped
// (flush-shaped) batches plan in O(distinct keys) probes.
//
// The next chain is written lazily: a run that is still contiguous
// (items head..tail with no gaps) carries no chain at all — its tail and
// count advance and nothing else is touched, so the flush-shaped fast
// path costs two stores per item instead of four. The chain is
// materialized (backfilled for the contiguous prefix, then linked) only
// when a run fragments, i.e. when a key recurs non-adjacently. Consumers
// must therefore check Contiguous before walking Next — exactly what
// slicing the input directly requires anyway.
//
//req:noalloc
func (b *Batch[K]) group(keys []K, mask uint64) {
	tmask := uint64(len(b.table) - 1)
	last := int32(-1) // run index of keys[i-1]
	for i := range keys {
		if i > 0 && keys[i] == keys[i-1] {
			// keys[i-1] was the last item appended, so run.tail == i-1: a
			// contiguous run stays contiguous and needs no chain writes.
			run := &b.runs[last]
			if run.n == run.tail-run.head+1 {
				run.tail = int32(i)
				run.n++
				continue
			}
			b.next[run.tail] = int32(i)
			b.next[i] = -1
			run.tail = int32(i)
			run.n++
			continue
		}
		h := b.hashes[i]
		slot := int(h & tmask)
		for {
			r := b.table[slot]
			if r < 0 {
				last = int32(len(b.runs))
				b.table[slot] = last
				nr := batchRun{head: int32(i), tail: int32(i), n: 1, slot: int32(slot), shard: int32(h & mask)}
				b.runs = append(b.runs, nr) //req:allocok — reset pre-sized cap(runs) ≥ len(keys)
				break
			}
			run := &b.runs[r]
			if b.hashes[run.head] == h && keys[run.head] == keys[i] {
				if run.n == run.tail-run.head+1 {
					// The run fragments here: materialize the chain for its
					// contiguous prefix before linking item i onto it.
					for j := run.head; j < run.tail; j++ {
						b.next[j] = j + 1
					}
				}
				b.next[run.tail] = int32(i)
				b.next[i] = -1
				run.tail = int32(i)
				run.n++
				last = r
				break
			}
			slot = int(uint64(slot+1) & tmask)
		}
	}
}

// sortRunsByShard counting-sorts the run indices into b.order by owning
// shard. The sort is stable, so within each shard the runs keep
// first-occurrence order — the same cell-creation order a per-item loop
// over the batch would produce.
//
//req:noalloc
func (b *Batch[K]) sortRunsByShard(nshards int) {
	counts := b.counts[:nshards+1]
	for i := range counts {
		counts[i] = 0
	}
	for i := range b.runs {
		counts[b.runs[i].shard+1]++
	}
	for s := 1; s <= nshards; s++ {
		counts[s] += counts[s-1]
	}
	order := b.order[:len(b.runs)]
	for i := range b.runs {
		s := b.runs[i].shard
		order[counts[s]] = int32(i)
		counts[s]++
	}
}

// Runs returns the number of distinct-key runs in the current plan.
func (b *Batch[K]) Runs() int { return len(b.runs) }

// Run returns the i-th run in shard-grouped order: the input index of its
// first item, its item count, and its owning shard. Runs with equal shard
// are adjacent in i.
//
//req:noalloc
func (b *Batch[K]) Run(i int) (head, n, shard int) {
	r := &b.runs[b.order[i]]
	return int(r.head), int(r.n), int(r.shard)
}

// Contiguous reports whether the i-th run's items sit contiguously in the
// input (head..head+n-1), letting the caller slice the input directly
// instead of gathering through Next.
//
//req:noalloc
func (b *Batch[K]) Contiguous(i int) bool {
	r := &b.runs[b.order[i]]
	return int(r.tail-r.head)+1 == int(r.n)
}

// Next returns the input index following idx within its run, or -1 at the
// run's end. Only fragmented runs (Contiguous false) carry a chain; a
// contiguous run's items are head..head+n-1 by construction and its next
// entries are unwritten.
//
//req:noalloc
func (b *Batch[K]) Next(idx int) int { return int(b.next[idx]) }

// RoomFor reports whether n lazy creations in this shard are guaranteed
// not to run the eviction hand: either the map is uncapped, or the shard
// has headroom for n more keys. The batched ingest pipeline may resolve
// every run's cell up front (separating the cache-missing probes from the
// sketch work) only under this guarantee — an eviction mid-phase could
// reclaim a cell resolved earlier in the same batch.
//
// +req:locksRequired(sh.mu)
//
//req:noalloc
func (m *Map[K, E]) RoomFor(sh *Shard[K, E], n int) bool {
	return m.maxPerShard == 0 || len(sh.m)+n <= m.maxPerShard
}
