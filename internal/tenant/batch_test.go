package tenant

import (
	"math/rand"
	"testing"
)

// planned replays a plan into (key → indices in order) plus the shard walk
// order, so properties can be checked against a brute-force grouping. It
// consumes runs exactly as the ingest pipeline does: contiguous runs are
// the index range head..head+n-1 (their chain is unwritten by contract),
// fragmented runs walk Next.
func planned(b *Batch[uint64], keys []uint64) (map[uint64][]int, []int) {
	got := map[uint64][]int{}
	shards := make([]int, 0, b.Runs())
	for i := 0; i < b.Runs(); i++ {
		head, n, shard := b.Run(i)
		shards = append(shards, shard)
		idxs := make([]int, 0, n)
		if b.Contiguous(i) {
			for j := 0; j < n; j++ {
				idxs = append(idxs, head+j)
			}
		} else {
			for j := head; j >= 0; j = b.Next(j) {
				idxs = append(idxs, j)
			}
		}
		if len(idxs) != n {
			panic("run length mismatch")
		}
		got[keys[head]] = idxs
	}
	return got, shards
}

func TestPlanBatchProperties(t *testing.T) {
	m := newTestMap(Config{Shards: 8})
	var b Batch[uint64]
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		n := r.Intn(200)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(r.Intn(1 + n/4)) // plenty of repeats
		}
		m.PlanBatch(&b, keys)

		// Brute-force reference grouping: per key, indices in input order.
		want := map[uint64][]int{}
		for i, k := range keys {
			want[k] = append(want[k], i)
		}
		got, shards := planned(&b, keys)
		if len(got) != len(want) || b.Runs() != len(want) {
			t.Fatalf("iter %d: %d runs for %d distinct keys", iter, b.Runs(), len(want))
		}
		for k, idxs := range want {
			g := got[k]
			if len(g) != len(idxs) {
				t.Fatalf("iter %d key %d: chain %v want %v", iter, k, g, idxs)
			}
			for j := range idxs {
				if g[j] != idxs[j] {
					t.Fatalf("iter %d key %d: chain %v want %v (input order broken)", iter, k, g, idxs)
				}
			}
		}
		// Runs are grouped by shard: each shard's runs are adjacent.
		seen := map[int]bool{}
		for j, s := range shards {
			if j > 0 && s != shards[j-1] && seen[s] {
				t.Fatalf("iter %d: shard %d appears in two separate groups (%v)", iter, s, shards)
			}
			seen[s] = true
		}
		// Contiguous agrees with the brute-force grouping: true exactly when
		// the key's occurrences are consecutive input indices. (The per-key
		// chain/slice equality above already proved both consumption paths;
		// this pins the predicate that selects between them.)
		for i := 0; i < b.Runs(); i++ {
			head, cnt, _ := b.Run(i)
			idxs := want[keys[head]]
			consec := idxs[len(idxs)-1]-idxs[0]+1 == len(idxs)
			if b.Contiguous(i) != consec {
				t.Fatalf("iter %d run %d (head %d, n %d): Contiguous=%v, occurrences %v", iter, i, head, cnt, b.Contiguous(i), idxs)
			}
		}
	}
}

func TestPlanBatchShardMatchesLock(t *testing.T) {
	// The shard a run reports must be the shard Lock(key) would take.
	m := newTestMap(Config{Shards: 8})
	var b Batch[uint64]
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(i % 100)
	}
	m.PlanBatch(&b, keys)
	for i := 0; i < b.Runs(); i++ {
		head, _, shard := b.Run(i)
		sh := m.Lock(keys[head])
		idx := sh.idx
		sh.Unlock()
		if idx != shard {
			t.Fatalf("run %d (key %d): planned shard %d, Lock picks %d", i, keys[head], shard, idx)
		}
	}
}

func TestPlanBatchReuseNoGrowth(t *testing.T) {
	// Replanning batches no larger than the first must not allocate.
	m := newTestMap(Config{Shards: 4})
	var b Batch[uint64]
	keys := make([]uint64, 1024)
	r := rand.New(rand.NewSource(9))
	fill := func(distinct int) {
		for i := range keys {
			keys[i] = uint64(r.Intn(distinct))
		}
	}
	fill(300)
	m.PlanBatch(&b, keys) // grow once
	allocs := testing.AllocsPerRun(50, func() {
		fill(50 + r.Intn(300))
		m.PlanBatch(&b, keys)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PlanBatch allocates %v/op", allocs)
	}
}

func TestGetOrCreateRunMatchesGetOrCreate(t *testing.T) {
	// The batched path resolves each run's key with GetOrCreate: lazy
	// creation, identity on re-resolution, and in-place restart of a
	// TTL-expired entry.
	m := newTestMap(Config{Shards: 4, TTL: 100})
	sh := m.Lock(7)
	e1, created := m.GetOrCreate(sh, 7, 0)
	if !created {
		t.Fatal("first resolution did not create")
	}
	e2, created := m.GetOrCreate(sh, 7, 10)
	if created || e2 != e1 {
		t.Fatalf("re-resolution: created=%v same=%v", created, e2 == e1)
	}
	if got := m.Get(sh, 7, 20); got != e1 {
		t.Fatal("Get does not see the run-created entry")
	}
	e3, created := m.GetOrCreate(sh, 7, 500) // past TTL: restart in place
	if !created || e3 != e1 || e3.reuses != 1 {
		t.Fatalf("expired restart: created=%v same=%v reuses=%d", created, e3 == e1, e3.reuses)
	}
	sh.Unlock()
}
