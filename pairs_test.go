package req

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Equivalence suite for the batched keyed ingest path: UpdatePairs must
// leave every per-key sketch bit-identical to the per-op Update loop over
// the same pairs. Two instances of a registry hash keys to different
// shards (maphash seeds are random), which changes allocation sequence
// numbers and with them the per-key sketch seeds — so every differential
// pair below aligns hash seeds through the tenant determinism hook before
// ingesting, and pins the stream-length bound with WithKnownN so no growth
// boundary lands mid-batch (the one documented divergence of any batched
// ingest, see Sketch.UpdateBatch).

// pairOpts is the shared config of the differential registries: multiple
// shards so grouping is exercised, pinned bound, fixed sketch seed.
func pairOpts(extra ...Option) []Option {
	return append([]Option{
		WithK(8), WithSeed(11), WithShards(4), WithKnownN(1 << 20),
	}, extra...)
}

// alignedRegistries returns two empty float64 registries that shard
// identically, so identical ingest must produce identical MarshalBinary
// blobs.
func alignedRegistries(t *testing.T, opts ...Option) (*RegistryFloat64, *RegistryFloat64) {
	t.Helper()
	a, err := NewRegistryFloat64(opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRegistryFloat64(opts...)
	if err != nil {
		t.Fatal(err)
	}
	b.m.CopyHashSeed(a.m)
	return a, b
}

// sameBlob fails the test unless both registries export byte-identical
// state (per-key coresets in arena order — creation order, counts, items
// and weights all included).
func sameBlob(t *testing.T, what string, a, b *RegistryFloat64) {
	t.Helper()
	ba, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Fatalf("%s: batched registry state diverged from per-op state (%d vs %d bytes)",
			what, len(bb), len(ba))
	}
}

// pairBatch builds a batch with heavy key repetition: contiguous runs,
// scattered repeats, and singletons all occur.
func pairBatch(r *rand.Rand, n, distinct int) ([]string, []float64) {
	keys := make([]string, n)
	vals := make([]float64, n)
	for i := range keys {
		k := r.Intn(distinct)
		keys[i] = fmt.Sprintf("tenant-%03d", k)
		vals[i] = math.Round(r.NormFloat64()*1000) / 8
		if r.Intn(4) == 0 && i+1 < n { // force a contiguous same-key run
			keys[i] = fmt.Sprintf("tenant-%03d", r.Intn(distinct))
		}
	}
	return keys, vals
}

func TestUpdatePairsMatchesPerOpLoop(t *testing.T) {
	perOp, batched := alignedRegistries(t, pairOpts()...)
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 40; round++ {
		n := r.Intn(600) // includes tiny and empty batches
		if round == 3 {
			n = 0
		}
		keys, vals := pairBatch(r, n, 1+round*2)
		for i := range keys {
			perOp.Update(keys[i], vals[i])
		}
		batched.UpdatePairs(keys, vals)
	}
	sameBlob(t, "mixed batches", perOp, batched)
	if perOp.Len() != batched.Len() {
		t.Fatalf("Len diverged: %d vs %d", perOp.Len(), batched.Len())
	}
}

func TestUpdatePairsSingleKeyAndSingletons(t *testing.T) {
	perOp, batched := alignedRegistries(t, pairOpts()...)
	// One batch, one key: must behave exactly like UpdateBatch on that key.
	keys := make([]string, 300)
	vals := make([]float64, 300)
	for i := range keys {
		keys[i] = "only"
		vals[i] = float64(i % 37)
	}
	for i := range keys {
		perOp.Update(keys[i], vals[i])
	}
	batched.UpdatePairs(keys, vals)
	// A batch of all-distinct singletons: every run has length one.
	for i := range keys {
		keys[i] = fmt.Sprintf("s-%d", i)
	}
	for i := range keys {
		perOp.Update(keys[i], vals[i])
	}
	batched.UpdatePairs(keys, vals)
	sameBlob(t, "single-key + singletons", perOp, batched)
}

func TestUpdateKVsMatchesUpdatePairs(t *testing.T) {
	pairs, kvs := alignedRegistries(t, pairOpts()...)
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		keys, vals := pairBatch(r, 200, 30)
		pairs.UpdatePairs(keys, vals)
		batch := make([]KV[string, float64], len(keys))
		for i := range keys {
			batch[i] = KV[string, float64]{Key: keys[i], Value: vals[i]}
		}
		kvs.UpdateKVs(batch)
	}
	sameBlob(t, "UpdateKVs", pairs, kvs)
}

func TestUpdatePairsNaNFiltering(t *testing.T) {
	perOp, batched := alignedRegistries(t, pairOpts()...)
	r := rand.New(rand.NewSource(6))
	nan := math.NaN()
	for round := 0; round < 10; round++ {
		keys, vals := pairBatch(r, 300, 40)
		for i := range vals {
			if r.Intn(5) == 0 {
				vals[i] = nan
			}
		}
		// The per-op front drops NaNs item by item; the batched front must
		// drop exactly the same pairs (keys in tandem).
		for i := range keys {
			perOp.Update(keys[i], vals[i])
		}
		batched.UpdatePairs(keys, vals)
	}
	sameBlob(t, "NaN batches", perOp, batched)

	// A key whose every value is NaN must never be created.
	batched.UpdatePairs([]string{"ghost", "ghost"}, []float64{nan, nan})
	if batched.Contains("ghost") {
		t.Fatal("all-NaN pairs materialized a key")
	}
}

func TestUpdatePairsLazyCreation(t *testing.T) {
	reg, err := NewRegistryFloat64(pairOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatal("fresh registry not empty")
	}
	reg.UpdatePairs([]string{"a", "b", "a"}, []float64{1, 2, 3})
	if reg.Len() != 2 || !reg.Contains("a") || !reg.Contains("b") {
		t.Fatalf("lazy creation: Len=%d", reg.Len())
	}
	if got := reg.Count("a"); got != 2 {
		t.Fatalf("key a count = %d, want 2", got)
	}
	// Existing keys are updated, not recreated.
	reg.UpdatePairs([]string{"b", "c"}, []float64{4, 5})
	if reg.Len() != 3 || reg.Count("b") != 2 {
		t.Fatalf("after second batch: Len=%d Count(b)=%d", reg.Len(), reg.Count("b"))
	}
}

func TestUpdatePairsEvictionMidBatch(t *testing.T) {
	// Capacity pressure inside one batch: more distinct keys than the cap,
	// so the clock hand must evict while the batch is being applied. With
	// one occurrence per key the ref-bit timeline matches the per-op loop
	// exactly, so the surviving population must be bit-identical.
	clk := &fakeClock{}
	opts := pairOpts(WithMaxEntries(32), WithTTL(time.Minute), clk.opt())
	perOp, batched := alignedRegistries(t, opts...)
	r := rand.New(rand.NewSource(8))
	for round := 0; round < 12; round++ {
		clk.advance(time.Second)
		n := 64 + r.Intn(64)
		keys := make([]string, n)
		vals := make([]float64, n)
		seen := map[string]bool{}
		for i := range keys {
			for {
				k := fmt.Sprintf("churn-%03d", r.Intn(200))
				if !seen[k] {
					seen[k] = true
					keys[i] = k
					break
				}
			}
			vals[i] = float64(i)
		}
		for i := range keys {
			perOp.Update(keys[i], vals[i])
		}
		batched.UpdatePairs(keys, vals)
		if pe, be := perOp.Evictions(), batched.Evictions(); pe != be {
			t.Fatalf("round %d: eviction counts diverged: per-op %d, batched %d", round, pe, be)
		}
	}
	sameBlob(t, "eviction churn", perOp, batched)
}

func TestUpdatePairsTTLExpiryAcrossBatches(t *testing.T) {
	clk := &fakeClock{}
	opts := pairOpts(WithTTL(10*time.Second), clk.opt())
	perOp, batched := alignedRegistries(t, opts...)
	feed := func(keys []string, vals []float64) {
		for i := range keys {
			perOp.Update(keys[i], vals[i])
		}
		batched.UpdatePairs(keys, vals)
	}
	feed([]string{"a", "b"}, []float64{1, 2})
	clk.advance(11 * time.Second) // both keys expire
	feed([]string{"a", "c"}, []float64{3, 4})
	if perOp.Contains("b") || batched.Contains("b") {
		t.Fatal("expired key still visible")
	}
	sameBlob(t, "TTL restart", perOp, batched)
}

// FuzzUpdatePairs feeds the same fuzzer-chosen batches to two aligned
// registries, one through the per-op Update loop and one through
// UpdatePairs, and requires byte-identical exports and equal eviction
// counts after every batch.
//
// prog is a sequence of batch records: four header bytes, then one byte per
// item. The header holds the batch size, the key count (1 + keys%64), the
// run length (1 + run%16: a run's first byte picks its key and the rest of
// the run repeats it), and a control byte: its low nibble is the NaN share
// (an item is NaN when its byte%16 falls below it), its high nibble the
// clock step taken before the batch, in seconds, where 15 jumps past the
// TTL. When capped is set the registries hold at most 16 keys and each key
// occurs at most once per batch, the one shape under which pairs.go's
// ordering contract promises the per-op loop's evictions.
func FuzzUpdatePairs(f *testing.F) {
	batch := func(n, keys, run, ctl byte, body ...byte) []byte {
		return append([]byte{n, keys, run, ctl}, body...)
	}
	seq := func(n int, from byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = from + byte(i*37)
		}
		return b
	}
	// Mixed batches with contiguous runs, scattered repeats and an empty
	// batch, enough of them that keys compact mid-run
	// (TestUpdatePairsMatchesPerOpLoop).
	var mixed []byte
	for round := 0; round < 24; round++ {
		n := 255 - byte(round*5)
		if round == 3 {
			n = 0
		}
		mixed = append(mixed, batch(n, byte(round*2), byte(round%3), 0x10, seq(int(n), byte(round))...)...)
	}
	f.Add(false, mixed)
	// One key, then all-distinct singletons
	// (TestUpdatePairsSingleKeyAndSingletons).
	single := batch(200, 0, 15, 0x00, seq(200, 3)...)
	singletons := make([]byte, 64)
	for i := range singletons {
		singletons[i] = byte(i)
	}
	f.Add(false, append(single, batch(64, 63, 0, 0x00, singletons...)...))
	// NaN values, some keys all NaN (TestUpdatePairsNaNFiltering).
	f.Add(false, append(batch(150, 39, 1, 0x14, seq(150, 5)...), batch(30, 2, 4, 0x1F, seq(30, 0)...)...))
	// Eviction churn under a cap, one occurrence per key
	// (TestUpdatePairsEvictionMidBatch).
	var churn []byte
	for i := 0; i < 6; i++ {
		churn = append(churn, batch(64+byte(i*9), 63, 0, 0x10, seq(64+i*9, byte(i))...)...)
	}
	f.Add(true, churn)
	// Keys that expire between batches and restart in place
	// (TestUpdatePairsTTLExpiryAcrossBatches).
	f.Add(false, append(batch(2, 3, 0, 0x00, 0, 1), batch(2, 3, 0, 0xF0, 0, 2)...))
	f.Add(true, append(batch(20, 20, 0, 0x00, seq(20, 0)...), batch(20, 40, 0, 0xF2, seq(20, 9)...)...))

	f.Fuzz(func(t *testing.T, capped bool, prog []byte) {
		clk := &fakeClock{}
		opts := pairOpts(WithTTL(time.Minute), clk.opt())
		if capped {
			opts = append(opts, WithMaxEntries(16))
		}
		perOp, batched := alignedRegistries(t, opts...)
		// At most 64 batches of 255 items keep every key inside WithKnownN.
		for round := 0; len(prog) >= 4 && round < 64; round++ {
			nkeys, run, ctl := 1+int(prog[1]%64), 1+int(prog[2]%16), prog[3]
			body := prog[4:min(len(prog), 4+int(prog[0]))]
			prog = prog[4+len(body):]
			if step := ctl >> 4; step == 15 {
				clk.advance(time.Hour)
			} else {
				clk.advance(time.Duration(step) * time.Second)
			}
			keys, vals := fuzzPairs(body, nkeys, run, int(ctl&15), capped)
			for i := range keys {
				perOp.Update(keys[i], vals[i])
			}
			batched.UpdatePairs(keys, vals)
			sameBlob(t, fmt.Sprintf("batch %d", round), perOp, batched)
			if pe, be := perOp.Evictions(), batched.Evictions(); pe != be {
				t.Fatalf("batch %d: eviction counts diverged: per-op %d, batched %d", round, pe, be)
			}
		}
	})
}

// fuzzPairs decodes one FuzzUpdatePairs batch body into pairs. Capped
// batches draw each key once from a pool of max(nkeys, len(body)) keys,
// probing past keys the batch already used.
func fuzzPairs(body []byte, nkeys, run, nanBelow int, capped bool) ([]string, []float64) {
	keys := make([]string, len(body))
	vals := make([]float64, len(body))
	pool := max(nkeys, len(body))
	used := make(map[int]bool, len(body))
	k := 0
	for i, b := range body {
		switch {
		case capped:
			for k = int(b) % pool; used[k]; k = (k + 1) % pool {
			}
			used[k] = true
		case i%run == 0:
			k = int(b) % nkeys
		}
		keys[i] = fmt.Sprintf("k%03d", k)
		vals[i] = float64(int(b)-128) / 4
		if int(b)%16 < nanBelow {
			vals[i] = math.NaN()
		}
	}
	return keys, vals
}

// windowedStates dumps every key's ring state (epochs + per-slot debug
// dumps) in arena order — the windowed analogue of MarshalBinary for
// differential comparison.
func windowedStates(w *WindowedRegistryFloat64) string {
	var out string
	w.m.Visit(w.now(), func(key string, e *winEntry[float64]) bool {
		out += fmt.Sprintf("key=%s epochs=%v\n", key, e.epochs)
		for i := range e.ring {
			out += e.ring[i].DebugString() + "\n"
		}
		return true
	})
	return out
}

func TestWindowedUpdatePairsMatchesPerOpLoop(t *testing.T) {
	clk := &fakeClock{}
	opts := pairOpts(WithWindow(4, time.Second), clk.opt())
	mk := func() *WindowedRegistryFloat64 {
		w, err := NewWindowedRegistryFloat64(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	perOp, batched := mk(), mk()
	batched.m.CopyHashSeed(perOp.m)
	r := rand.New(rand.NewSource(13))
	for round := 0; round < 30; round++ {
		// Epoch advance between batches, including multi-epoch jumps that
		// leave stale slots for lazy rotation, and sub-epoch advances that
		// land several batches in one slot.
		clk.advance(time.Duration(r.Intn(2500)) * time.Millisecond)
		keys, vals := pairBatch(r, r.Intn(300), 25)
		for i := range keys {
			perOp.Update(keys[i], vals[i])
		}
		batched.UpdatePairs(keys, vals)
	}
	if a, b := windowedStates(perOp), windowedStates(batched); a != b {
		t.Fatalf("windowed batched state diverged from per-op state:\nper-op:\n%s\nbatched:\n%s", a, b)
	}
	// Windowed answers agree too (same merged view).
	for _, k := range []string{"tenant-000", "tenant-007", "tenant-012"} {
		qa, ea := perOp.Quantile(k, 0.9)
		qb, eb := batched.Quantile(k, 0.9)
		if qa != qb || (ea == nil) != (eb == nil) {
			t.Fatalf("key %s: windowed quantile diverged: %v/%v vs %v/%v", k, qa, ea, qb, eb)
		}
	}
}

func TestWindowedUpdatePairsRotationBoundary(t *testing.T) {
	clk := &fakeClock{}
	w, err := NewWindowedRegistryFloat64(pairOpts(WithWindow(3, time.Second), clk.opt())...)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"x", "x", "y"}
	// Fill epoch 0, then land a batch exactly on the epoch 1 boundary: the
	// whole batch must go to slot 1 (single clock reading), with slot 0
	// preserved until it ages out of the window.
	w.UpdatePairs(keys, []float64{1, 2, 3})
	clk.now = int64(time.Second) // exact boundary
	w.UpdatePairs(keys, []float64{4, 5, 6})
	if got := w.Count("x"); got != 4 {
		t.Fatalf("x window count = %d, want 4 (both epochs live)", got)
	}
	// Jump past the whole window: old slots age out, the next batch rotates
	// its slot lazily and answers alone.
	clk.advance(10 * time.Second)
	w.UpdatePairs(keys, []float64{7, 8, 9})
	if got := w.Count("x"); got != 2 {
		t.Fatalf("x count after window jump = %d, want 2", got)
	}
	q, err := w.Quantile("y", 0.5)
	if err != nil || q != 9 {
		t.Fatalf("y median after jump = %v, %v; want 9", q, err)
	}
}

func TestUpdatePairsConcurrent(t *testing.T) {
	// Race coverage: concurrent batched writers over overlapping key sets,
	// interleaved with queries and per-op writers. Correctness here is
	// "race detector silent + total counts add up".
	reg, err := NewRegistryFloat64(WithK(8), WithSeed(3), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		rounds  = 50
		batch   = 128
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			keys := make([]string, batch)
			vals := make([]float64, batch)
			for round := 0; round < rounds; round++ {
				for i := range keys {
					keys[i] = fmt.Sprintf("k-%02d", r.Intn(32))
					vals[i] = float64(i)
				}
				if g == 0 {
					for i := range keys { // one per-op writer in the mix
						reg.Update(keys[i], vals[i])
					}
				} else {
					reg.UpdatePairs(keys, vals)
				}
				if round%8 == 0 {
					_, _ = reg.Quantile(keys[0], 0.5)
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	reg.Visit(func(_ string, s *Sketch[float64]) bool {
		total += s.Count()
		return true
	})
	if want := uint64(writers * rounds * batch); total != want {
		t.Fatalf("total ingested weight = %d, want %d", total, want)
	}
}
