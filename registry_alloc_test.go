package req

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// Allocation pins for the keyed hot paths: once every resident sketch has
// grown past its high-water mark, keyed updates and keyed queries must not
// allocate — the tenant arena recycles cells, the sketch recycles its
// level buffers, and keyed reads select through the shard's grow-only
// union scratch.

// warmRegistry builds a string-keyed registry with nkeys resident keys,
// each warmed past its growth phase and read twice around a write.
func warmRegistry(tb testing.TB, nkeys, perKey int) (*RegistryFloat64, []string) {
	tb.Helper()
	reg, err := NewRegistryFloat64(WithK(8), WithSeed(7), WithShards(4))
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%04d", i)
	}
	for i, k := range keys {
		for j := 0; j < perKey; j++ {
			reg.Update(k, float64((j*7919+i)%perKey))
		}
		// Grow the shard's union scratch and settle the key's levels.
		if _, err := reg.Quantile(k, 0.5); err != nil {
			tb.Fatal(err)
		}
		reg.Update(k, 0.5)
		if _, err := reg.Quantile(k, 0.5); err != nil {
			tb.Fatal(err)
		}
	}
	return reg, keys
}

func TestAllocsRegistryUpdate(t *testing.T) {
	reg, keys := warmRegistry(t, 64, 1<<12)
	i := 0
	if avg := testing.AllocsPerRun(5000, func() {
		reg.Update(keys[i&63], float64(i&1023))
		i++
	}); avg != 0 {
		t.Fatalf("steady-state keyed Update allocates %v allocs/op", avg)
	}
}

func TestAllocsRegistryQuantile(t *testing.T) {
	reg, keys := warmRegistry(t, 16, 1<<12)
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		k := keys[i&15]
		reg.Update(k, float64(i&1023))
		if _, err := reg.Quantile(k, 0.99); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("keyed Quantile with interleaved updates allocates %v allocs/op", avg)
	}
}

func TestAllocsRegistryQuantilesInto(t *testing.T) {
	reg, keys := warmRegistry(t, 8, 1<<12)
	phis := []float64{0.5, 0.9, 0.99}
	dst := make([]float64, 0, len(phis))
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		k := keys[i&7]
		reg.Update(k, float64(i&1023))
		var err error
		dst, err = reg.QuantilesInto(k, dst[:0], phis)
		if err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("keyed QuantilesInto allocates %v allocs/op", avg)
	}
}

// TestAllocsRegistryFirstReadPerKey pins that a keyed read leaves no
// read state on the key: every fresh key's first QuantilesInto selects
// through the shard's union scratch, so it allocates no per-key union and
// no view (a view would be a first read's allocation). Each key's values
// arrive ascending, so its levels are already settled and the read sorts
// nothing.
func TestAllocsRegistryFirstReadPerKey(t *testing.T) {
	reg, err := NewRegistryFloat64(WithK(8), WithSeed(7), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 301)
	for i := range keys {
		keys[i] = fmt.Sprintf("fresh-%04d", i)
		for j := 0; j < 20; j++ {
			reg.Update(keys[i], float64(j))
		}
	}
	phis := []float64{0.5, 0.9, 0.99}
	dst := make([]float64, 0, len(phis))
	i := 0
	if avg := testing.AllocsPerRun(300, func() {
		if dst, err = reg.QuantilesInto(keys[i], dst[:0], phis); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("a fresh key's first read allocates %v allocs/op", avg)
	}
}

// TestAllocsRegistryChurn pins the three ways a registry hands a key's
// storage to new data: at capacity the clock hand evicts a cell for each
// fresh key; past the TTL a key's next update restarts its cell in place;
// and an ExpireNow sweep returns expired cells to the freelist for fresh
// keys. Each must reuse cells and reset their level buffers, not allocate. Key strings
// are preallocated (the caller owns key construction; the registry must
// add nothing).
func TestAllocsRegistryChurn(t *testing.T) {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("churn-%05d", i)
	}
	for _, tc := range []struct {
		name string
		opt  Option
		// step churns once at step i; every step must count perStep
		// evictions.
		step    func(t *testing.T, reg *RegistryFloat64, clk *fakeClock, i int)
		perStep uint64
	}{
		{"capacity", WithMaxEntries(64), func(_ *testing.T, reg *RegistryFloat64, _ *fakeClock, i int) {
			// Every key is absent from the full registry when it comes up.
			reg.Update(keys[i&4095], float64(i&63))
		}, 1},
		{"ttl-restart", WithTTL(time.Second), func(t *testing.T, reg *RegistryFloat64, clk *fakeClock, i int) {
			// 64 keys in rotation: each has been idle 64 TTLs when it comes
			// up, so its first update restarts the expired cell.
			clk.advance(time.Second)
			k := keys[i&63]
			for j := 0; j < 64; j++ {
				reg.Update(k, float64(j))
			}
			if n := reg.Count(k); n != 64 {
				t.Fatalf("%s holds %d items after its restart, want 64", k, n)
			}
		}, 0},
		{"ttl-expirenow", WithTTL(time.Second), func(_ *testing.T, reg *RegistryFloat64, clk *fakeClock, i int) {
			// 16 keys the registry does not hold, swept once they expire.
			base := (i & 15) * 16
			for _, k := range keys[base : base+16] {
				for j := 0; j < 32; j++ {
					reg.Update(k, float64(j))
				}
			}
			clk.advance(time.Second)
			reg.ExpireNow()
		}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{}
			reg, err := NewRegistryFloat64(WithK(4), WithSeed(3), WithShards(2), tc.opt, clk.opt())
			if err != nil {
				t.Fatal(err)
			}
			// Warm: run full churn cycles so every shard has reclaimed and
			// reused cells at their final buffer sizes.
			i := 0
			for ; i < 1024; i++ {
				tc.step(t, reg, clk, i)
			}
			evicted, steps := reg.Evictions(), 0
			if avg := testing.AllocsPerRun(1000, func() {
				tc.step(t, reg, clk, i)
				i++
				steps++
			}); avg != 0 {
				t.Fatalf("steady-state %s churn allocates %v allocs/op", tc.name, avg)
			}
			if got, want := reg.Evictions()-evicted, tc.perStep*uint64(steps); got != want {
				t.Fatalf("%d steps evicted %d cells, want %d", steps, got, want)
			}
		})
	}
}

func TestAllocsWindowedUpdateAndQuery(t *testing.T) {
	clk := &fakeClock{}
	w, err := NewWindowedRegistryFloat64(
		WithK(8), WithSeed(5), WithShards(2), WithWindow(4, time.Second), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("ep-%02d", i)
	}
	// Warm: fill every slot of every key across several full rotations,
	// querying as we go so the per-shard union scratch reaches its
	// high-water mark.
	phis := []float64{0.5, 0.99}
	dst := make([]float64, 0, len(phis))
	for ep := 0; ep < 12; ep++ {
		clk.set(time.Duration(ep) * time.Second)
		for i, k := range keys {
			for j := 0; j < 1<<10; j++ {
				w.Update(k, float64((j*31+i)&1023))
			}
			var err error
			dst, err = w.QuantilesInto(k, dst[:0], phis)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		k := keys[i&15]
		w.Update(k, float64(i&1023))
		var err error
		dst, err = w.QuantilesInto(k, dst[:0], phis)
		if err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("windowed Update+QuantilesInto allocates %v allocs/op", avg)
	}
	// The single-φ read and Rank are pure reads of the same state.
	if avg := testing.AllocsPerRun(2000, func() {
		k := keys[i&15]
		w.Update(k, float64(i&1023))
		if _, err := w.Quantile(k, 0.99); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rank(k, float64(i&1023)); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("windowed Update+Quantile+Rank allocates %v allocs/op", avg)
	}
	// Rotation itself must also be allocation-free once warm: advance the
	// epoch every iteration.
	ep := int64(12)
	if avg := testing.AllocsPerRun(200, func() {
		clk.set(time.Duration(ep) * time.Second)
		ep++
		for j := 0; j < 64; j++ {
			w.Update(keys[0], float64(j))
		}
	}); avg != 0 {
		t.Fatalf("windowed rotation allocates %v allocs/op", avg)
	}
}

// TestAllocsRegistryUpdatePairs pins the batched ingest path: once the
// pooled pair scratch (hash/run/table arrays) has grown to the batch's
// high-water mark, steady-state UpdatePairs over resident keys must not
// allocate. The caller owns the key and value slices; the registry adds
// nothing per batch.
func TestAllocsRegistryUpdatePairs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch: sync.Pool randomizes itself under the race detector")
	}
	reg, keys := warmRegistry(t, 64, 1<<10)
	const batch = 256
	bk := make([]string, batch)
	bv := make([]float64, batch)
	for i := range bk {
		bk[i] = keys[(i*7)&63]
		bv[i] = float64(i & 1023)
	}
	// Warm the pooled scratch to this batch size.
	reg.UpdatePairs(bk, bv)
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		for j := range bv {
			bv[j] = float64((i + j) & 1023)
		}
		reg.UpdatePairs(bk, bv)
		i++
	}); avg != 0 {
		t.Fatalf("steady-state UpdatePairs allocates %v allocs/op", avg)
	}
}

// TestAllocsRegistryUpdateKVs pins the []KV front: splitting kvs into the
// pooled key/value staging arrays must reuse them run to run.
func TestAllocsRegistryUpdateKVs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch: sync.Pool randomizes itself under the race detector")
	}
	reg, keys := warmRegistry(t, 64, 1<<10)
	const batch = 256
	kvs := make([]KV[string, float64], batch)
	for i := range kvs {
		kvs[i] = KV[string, float64]{Key: keys[(i*5)&63], Value: float64(i)}
	}
	reg.UpdateKVs(kvs)
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		for j := range kvs {
			kvs[j].Value = float64((i + j) & 1023)
		}
		reg.UpdateKVs(kvs)
		i++
	}); avg != 0 {
		t.Fatalf("steady-state UpdateKVs allocates %v allocs/op", avg)
	}
}

// TestAllocsRegistryUpdatePairsNaN pins the NaN-compaction path: batches
// containing NaNs are filtered into pooled staging arrays, not fresh ones.
func TestAllocsRegistryUpdatePairsNaN(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch: sync.Pool randomizes itself under the race detector")
	}
	reg, keys := warmRegistry(t, 64, 1<<10)
	const batch = 256
	bk := make([]string, batch)
	bv := make([]float64, batch)
	nan := math.NaN()
	for i := range bk {
		bk[i] = keys[(i*3)&63]
		if i&7 == 0 {
			bv[i] = nan
		} else {
			bv[i] = float64(i)
		}
	}
	reg.UpdatePairs(bk, bv)
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		for j := range bv {
			if j&7 != 0 {
				bv[j] = float64((i + j) & 1023)
			}
		}
		reg.UpdatePairs(bk, bv)
		i++
	}); avg != 0 {
		t.Fatalf("NaN-filtered UpdatePairs allocates %v allocs/op", avg)
	}
}

// TestAllocsWindowedUpdatePairs pins the windowed batched path, including
// in-batch slot resolution and steady rotation.
func TestAllocsWindowedUpdatePairs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch: sync.Pool randomizes itself under the race detector")
	}
	clk := &fakeClock{}
	w, err := NewWindowedRegistryFloat64(
		WithK(8), WithSeed(5), WithShards(2), WithWindow(4, time.Second), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("ep-%02d", i)
	}
	const batch = 256
	bk := make([]string, batch)
	bv := make([]float64, batch)
	for i := range bk {
		bk[i] = keys[(i*3)&15]
		bv[i] = float64(i)
	}
	// Warm every ring slot across several rotations at this batch size.
	for ep := 0; ep < 12; ep++ {
		clk.set(time.Duration(ep) * time.Second)
		for r := 0; r < 8; r++ {
			w.UpdatePairs(bk, bv)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		for j := range bv {
			bv[j] = float64((i + j) & 1023)
		}
		w.UpdatePairs(bk, bv)
		i++
	}); avg != 0 {
		t.Fatalf("steady-state windowed UpdatePairs allocates %v allocs/op", avg)
	}
	// Rotating every batch must stay allocation-free too.
	ep := int64(12)
	if avg := testing.AllocsPerRun(200, func() {
		clk.set(time.Duration(ep) * time.Second)
		ep++
		w.UpdatePairs(bk, bv)
	}); avg != 0 {
		t.Fatalf("windowed UpdatePairs across rotations allocates %v allocs/op", avg)
	}
}

// TestAllocsRegistryCleanExport pins an export with no write since the
// last one: every record is copied from the stream the last export kept,
// so the export allocates its blob and the record places it keeps, the
// same few blocks at 256 keys as at 4,096.
func TestAllocsRegistryCleanExport(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i * 37 % 64)
	}
	var allocs []float64
	for _, nkeys := range []int{256, 4096} {
		reg, err := NewRegistryFloat64(WithK(16), WithHighRankAccuracy(), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nkeys; i++ {
			reg.UpdateBatch(fmt.Sprintf("key-%05d", i), vals)
		}
		if _, err := reg.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := reg.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("a clean export allocates %v blocks at 256 keys and %v at 4,096, want the same ≤ 2", allocs[0], allocs[1])
	}
}

// TestRegistryBytesPerKey pins the heap a resident key costs with
// keyed_ingest's options (WithK(16), high-rank accuracy): a sketch's
// level-0 buffer is sized by the items it holds, so a cold key costs a few
// hundred bytes, not a reservation of B = 128 items and eight level
// headers. Each case measures the HeapAlloc growth, after a GC, of
// populating 16K keys through UpdateBatch, then of what the case does to
// every key; the key strings are built before the first reading. A live
// read, a Snapshot, or the Visit facade's Snapshot, All and RankBatch of
// every key leaves nothing on the keys: every key borrows its shard's
// Work, through which they all settle and merge. An export (one MarshalBinary, its
// blob dropped) leaves the registry the export's records for the next one
// (each key's record and its place in the stream) and nothing on the
// keys, so an exported key costs its unexported bytes plus its record. One
// more Update per key after the export grows each level-0 buffer and
// keeps the stale record until the next export.
func TestRegistryBytesPerKey(t *testing.T) {
	const nkeys = 1 << 14
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i * 37 % 64)
	}
	each := func(f func(r *RegistryFloat64, k string) error) func(*RegistryFloat64) error {
		return func(r *RegistryFloat64) error {
			for _, k := range keys {
				if err := f(r, k); err != nil {
					return err
				}
			}
			return nil
		}
	}
	read := each(func(r *RegistryFloat64, k string) error { _, err := r.Quantile(k, 0.5); return err })
	snapshot := each(func(r *RegistryFloat64, k string) error { _, err := r.Snapshot(k); return err })
	export := func(r *RegistryFloat64) error { _, err := r.MarshalBinary(); return err }
	visit := func(r *RegistryFloat64) error {
		var ranks []uint64
		r.Visit(func(_ string, s *Sketch[float64]) bool {
			s.Snapshot()
			for range s.All() {
			}
			ranks = s.RankBatch(ranks, []float64{8, 32, 56})
			return true
		})
		return nil
	}
	write := each(func(r *RegistryFloat64, k string) error { r.Update(k, 0.5); return nil })
	for _, tc := range []struct {
		name     string
		items    int
		windowed bool
		then     []func(*RegistryFloat64) error // run on every key after populating
		limit    float64                        // bytes per key
	}{
		{"1-item", 1, false, nil, 751},
		{"64-items", 64, false, nil, 1251},
		{"windowed-1-item", 1, true, nil, 2964},
		{"64-items-read", 64, false, []func(*RegistryFloat64) error{read}, 1251},
		{"64-items-snapshot", 64, false, []func(*RegistryFloat64) error{snapshot}, 1251},
		{"64-items-visited", 64, false, []func(*RegistryFloat64) error{visit}, 1251},
		{"1-item-exported", 1, false, []func(*RegistryFloat64) error{export}, 872},
		{"64-items-exported", 64, false, []func(*RegistryFloat64) error{export}, 1957},
		{"64-items-exported-then-written", 64, false, []func(*RegistryFloat64) error{export, write}, 2469},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithK(16), WithHighRankAccuracy(), WithSeed(1)}
			before := heapAlloc()
			var reg interface{ UpdateBatch(string, []float64) }
			var err error
			if tc.windowed {
				opts = append(opts, WithWindow(5, time.Minute), WithClock(func() int64 { return 0 }))
				reg, err = NewWindowedRegistryFloat64(opts...)
			} else {
				reg, err = NewRegistryFloat64(opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				reg.UpdateBatch(k, vals[:tc.items])
			}
			for _, f := range tc.then {
				if err := f(reg.(*RegistryFloat64)); err != nil {
					t.Fatal(err)
				}
			}
			perKey := float64(heapAlloc()-before) / nkeys
			runtime.KeepAlive(reg)
			t.Logf("%.0f heap bytes per key", perKey)
			if perKey > tc.limit {
				t.Fatalf("%s: a key costs %.0f heap bytes, want ≤ %.0f", tc.name, perKey, tc.limit)
			}
		})
	}
}

// heapAlloc returns the live heap bytes after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
