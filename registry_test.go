package req

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a synthetic nanosecond clock for driving TTL and window
// rotation deterministically.
type fakeClock struct{ now int64 }

func (c *fakeClock) opt() Option             { return WithClock(func() int64 { return c.now }) }
func (c *fakeClock) advance(d time.Duration) { c.now += int64(d) }
func (c *fakeClock) set(t time.Duration)     { c.now = int64(t) }

func TestRegistryBasics(t *testing.T) {
	r, err := NewRegistryFloat64(WithK(8), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Quantile("missing", 0.5); !errors.Is(err, ErrNoKey) {
		t.Fatalf("Quantile of absent key: %v, want ErrNoKey", err)
	}
	if _, err := r.Rank("missing", 1); !errors.Is(err, ErrNoKey) {
		t.Fatalf("Rank of absent key: %v, want ErrNoKey", err)
	}
	if _, err := r.Snapshot("missing"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("Snapshot of absent key: %v, want ErrNoKey", err)
	}
	if r.Count("missing") != 0 || r.Contains("missing") || r.Len() != 0 {
		t.Fatal("empty registry reports residents")
	}
	for i := 0; i < 10_000; i++ {
		r.Update("a", float64(i))
	}
	r.UpdateBatch("b", []float64{1, 2, 3, 4, 5})
	if r.Len() != 2 || !r.Contains("a") || r.Count("b") != 5 {
		t.Fatalf("Len=%d Contains(a)=%v Count(b)=%d", r.Len(), r.Contains("a"), r.Count("b"))
	}
	q, err := r.Quantile("a", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q < 3000 || q > 7000 {
		t.Fatalf("p50(a) = %v, wildly off for uniform 0..9999", q)
	}
	if rank, _ := r.Rank("b", 3); rank != 3 {
		t.Fatalf("Rank(b, 3) = %d, want 3 (tiny sketch is exact)", rank)
	}
	qs, err := r.QuantilesInto("b", nil, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != 1 || qs[2] != 5 {
		t.Fatalf("QuantilesInto(b) = %v", qs)
	}
	if !r.Delete("a") || r.Delete("a") || r.Contains("a") {
		t.Fatal("Delete semantics broken")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Reset", r.Len())
	}
}

// TestRegistryPerKeyIsolation proves keys are independent sketches: a
// hot key's churn does not contaminate a cold key's distribution.
func TestRegistryPerKeyIsolation(t *testing.T) {
	r, err := NewRegistryUint64(WithK(8), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50_000; i++ {
		r.Update(1, i)    // key 1: uniform 0..50k
		r.Update(2, 1000) // key 2: constant
	}
	q, err := r.Quantile(2, 0.5)
	if err != nil || q != 1000 {
		t.Fatalf("constant key p50 = %d (%v), want 1000", q, err)
	}
	if n := r.Count(2); n != 50_000 {
		t.Fatalf("Count(2) = %d", n)
	}
}

// TestRegistryAccuracy checks the per-key relative-error guarantee holds
// inside the registry exactly as it does for a standalone sketch.
func TestRegistryAccuracy(t *testing.T) {
	const eps = 0.04
	r, err := NewRegistryFloat64(WithEpsilon(eps), WithSeed(3), WithHighRankAccuracy())
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, v := range perm {
		r.Update("lat", float64(v))
	}
	for _, phi := range []float64{0.5, 0.9, 0.99, 0.999} {
		q, err := r.Quantile("lat", phi)
		if err != nil {
			t.Fatal(err)
		}
		trueRank := q + 1 // values are 0..n-1, so R(q) = q+1 exactly
		wantRank := phi * n
		// HRA guarantee is on n − R(y); allow 3ε slack for the rank→item
		// inversion at the query boundary.
		if diff := math.Abs(trueRank - wantRank); diff > 3*eps*(n-wantRank)+1 {
			t.Errorf("phi=%v: item %v (true rank %v), want rank %v ± %v",
				phi, q, trueRank, wantRank, 3*eps*(n-wantRank)+1)
		}
	}
}

func TestRegistryTTL(t *testing.T) {
	clk := &fakeClock{}
	r, err := NewRegistryFloat64(WithK(4), WithTTL(time.Minute), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	r.Update("a", 1)
	clk.advance(59 * time.Second)
	if !r.Contains("a") {
		t.Fatal("key expired before TTL")
	}
	r.Update("a", 2) // refresh
	clk.advance(59 * time.Second)
	if r.Count("a") != 2 {
		t.Fatal("refreshed key expired early")
	}
	clk.advance(2 * time.Minute)
	if r.Contains("a") {
		t.Fatal("key visible past TTL")
	}
	if _, err := r.Quantile("a", 0.5); !errors.Is(err, ErrNoKey) {
		t.Fatalf("expired key query: %v, want ErrNoKey", err)
	}
	// The lazy eviction above reclaimed it; a fresh update starts clean.
	r.Update("a", 7)
	if n := r.Count("a"); n != 1 {
		t.Fatalf("restarted key Count = %d, want 1", n)
	}
	// ExpireNow sweeps keys nobody touches.
	for i := 0; i < 100; i++ {
		r.Update(fmt.Sprintf("k%d", i), 1)
	}
	clk.advance(2 * time.Minute)
	if got := r.ExpireNow(); got != 101 { // 100 k-keys + "a"
		t.Fatalf("ExpireNow = %d, want 101", got)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after sweep", r.Len())
	}
	if r.Evictions() < 101 {
		t.Fatalf("Evictions = %d", r.Evictions())
	}
}

func TestRegistryMaxEntries(t *testing.T) {
	r, err := NewRegistryUint64(WithK(4), WithMaxEntries(64), WithShards(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10_000; k++ {
		r.Update(k, k)
		r.Update(k, k+1)
	}
	if r.Len() > 64 {
		t.Fatalf("Len = %d exceeds cap 64", r.Len())
	}
	if r.Evictions() < 9000 {
		t.Fatalf("Evictions = %d, churn should have evicted most keys", r.Evictions())
	}
	// Every resident key must still answer correctly.
	seen := 0
	r.Visit(func(key uint64, s *Sketch[uint64]) bool {
		seen++
		if s.Count() != 2 {
			t.Errorf("key %d Count = %d, want 2", key, s.Count())
		}
		return true
	})
	if seen != r.Len() {
		t.Fatalf("Visit saw %d keys, Len = %d", seen, r.Len())
	}
}

func TestRegistryVisit(t *testing.T) {
	r, _ := NewRegistryFloat64(WithK(4))
	for i := 0; i < 50; i++ {
		r.Update(fmt.Sprintf("k%d", i), float64(i))
	}
	got := map[string]uint64{}
	r.Visit(func(key string, s *Sketch[float64]) bool {
		got[key] = s.Count()
		return true
	})
	if len(got) != 50 {
		t.Fatalf("Visit saw %d keys, want 50", len(got))
	}
	for k, n := range got {
		if n != 1 {
			t.Errorf("key %s count %d", k, n)
		}
	}
	calls := 0
	r.Visit(func(string, *Sketch[float64]) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("stopped Visit made %d calls", calls)
	}
}

func TestRegistrySnapshotMatchesLive(t *testing.T) {
	r, _ := NewRegistryFloat64(WithK(8), WithSeed(5))
	for i := 0; i < 5000; i++ {
		r.Update("x", math.Sqrt(float64(i)))
	}
	sn, err := r.Snapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		a, _ := r.Quantile("x", phi)
		b, _ := sn.Quantile(phi)
		if a != b {
			t.Fatalf("phi=%v: live %v != snapshot %v", phi, a, b)
		}
	}
	// The snapshot is decoupled: further updates don't change it.
	n := sn.Count()
	r.Update("x", 1e9)
	if sn.Count() != n {
		t.Fatal("snapshot tracked a later update")
	}
}

func TestRegistryNaNFilter(t *testing.T) {
	r, _ := NewRegistryFloat64(WithK(4))
	r.Update("k", math.NaN())
	if r.Contains("k") {
		t.Fatal("NaN update materialized a key")
	}
	r.UpdateBatch("k", []float64{1, math.NaN(), 3})
	if n := r.Count("k"); n != 2 {
		t.Fatalf("Count = %d after NaN-filtered batch, want 2", n)
	}
	// Visit's facade writes through the key's own sketch, which drops NaN
	// on every write path, so the key keeps its count and still encodes.
	r.Visit(func(_ string, s *Sketch[float64]) bool {
		s.Update(math.NaN())
		s.UpdateBatch([]float64{math.NaN()})
		if err := s.UpdateWeighted(math.NaN(), 2); err != nil {
			t.Error(err)
		}
		return true
	})
	if n := r.Count("k"); n != 2 {
		t.Fatalf("Count = %d after NaN writes through Visit, want 2", n)
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRegistryFloat64(blob); err != nil {
		t.Fatalf("registry blob does not decode: %v", err)
	}
	w, _ := NewWindowedRegistryFloat64(WithK(4), WithWindow(2, time.Second))
	w.Update("k", math.NaN())
	if w.Contains("k") {
		t.Fatal("windowed NaN update materialized a key")
	}
	w.UpdateBatch("k", []float64{1, math.NaN()})
	if n := w.Count("k"); n != 1 {
		t.Fatalf("windowed Count = %d, want 1", n)
	}
}

func TestRegistryOptionValidation(t *testing.T) {
	if _, err := NewRegistry[string, float64](nil); err == nil {
		t.Error("nil less accepted")
	}
	if _, err := NewRegistryFloat64(WithTTL(0)); err == nil {
		t.Error("zero TTL accepted")
	}
	if _, err := NewRegistryFloat64(WithTTL(-time.Second)); err == nil {
		t.Error("negative TTL accepted")
	}
	if _, err := NewRegistryFloat64(WithMaxEntries(0)); err == nil {
		t.Error("zero max entries accepted")
	}
	if _, err := NewRegistryFloat64(WithClock(nil)); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewRegistryFloat64(WithWindow(2, time.Second)); err == nil {
		t.Error("plain registry accepted WithWindow")
	}
	if _, err := NewWindowedRegistryFloat64(WithK(4)); err == nil {
		t.Error("windowed registry without WithWindow accepted")
	}
	if _, err := NewWindowedRegistryFloat64(WithWindow(1, time.Second)); err == nil {
		t.Error("single-slot window accepted")
	}
	if _, err := NewWindowedRegistryFloat64(WithWindow(4, 0)); err == nil {
		t.Error("zero slot duration accepted")
	}
	if _, err := NewWindowedRegistry[string, float64](nil, WithWindow(2, time.Second)); err == nil {
		t.Error("windowed nil less accepted")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines: mixed
// updates, queries, deletes and sweeps across overlapping keys. Run under
// -race this is the registry's data-race proof.
func TestRegistryConcurrent(t *testing.T) {
	clk := &fakeClock{}
	var mu sync.Mutex // fakeClock itself is not concurrency-safe; guard writes
	r, err := NewRegistryFloat64(
		WithK(4), WithShards(8), WithMaxEntries(512), WithTTL(time.Hour),
		WithClock(func() int64 { mu.Lock(); defer mu.Unlock(); return clk.now }))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("k%d", (g*37+i)%300)
				r.Update(key, float64(i))
				switch i % 5 {
				case 0:
					_, _ = r.Quantile(key, 0.9)
				case 1:
					_ = r.Count(key)
				case 2:
					if i%50 == 2 {
						r.Delete(key)
					}
				case 3:
					_ = r.Contains(key)
				case 4:
					if i%100 == 4 {
						mu.Lock()
						clk.now += int64(time.Second)
						mu.Unlock()
						r.ExpireNow()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Len() > 512+8 {
		t.Fatalf("Len = %d exceeds cap", r.Len())
	}
}

// TestRegistryExportDuringWrites races MarshalBinary against writers: the
// export must be internally consistent (decodable) at any interleaving.
func TestRegistryExportDuringWrites(t *testing.T) {
	r, _ := NewRegistryUint64(WithK(4), WithShards(4))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Update(i%100, i)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		blob, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalRegistryUint64(blob); err != nil {
			t.Fatalf("export %d not decodable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
