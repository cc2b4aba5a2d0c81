package req

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestWindowedRotationAndExpiry(t *testing.T) {
	clk := &fakeClock{}
	// 4 slots × 1s: queries cover the trailing 3–4 seconds.
	w, err := NewWindowedRegistryFloat64(WithK(8), WithSeed(2), WithWindow(4, time.Second), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	if w.Slots() != 4 || w.SlotDuration() != time.Second || w.WindowDuration() != 4*time.Second {
		t.Fatalf("geometry: %d × %v (window %v)", w.Slots(), w.SlotDuration(), w.WindowDuration())
	}
	// One value per second for 10 seconds: values 0..9 at t=0..9s.
	for i := 0; i < 10; i++ {
		clk.set(time.Duration(i) * time.Second)
		w.Update("k", float64(i))
	}
	// At t=9s the window is epochs 6..9 → values 6,7,8,9.
	if n := w.Count("k"); n != 4 {
		t.Fatalf("Count = %d, want 4", n)
	}
	lo, err := w.Quantile("k", 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := w.Quantile("k", 1)
	if lo != 6 || hi != 9 {
		t.Fatalf("window [%v, %v], want [6, 9]", lo, hi)
	}
	if rank, _ := w.Rank("k", 7); rank != 2 {
		t.Fatalf("Rank(7) = %d, want 2", rank)
	}
	// Advance past the whole window without updates: everything expires
	// out of the query even though the key is still resident.
	clk.set(30 * time.Second)
	if n := w.Count("k"); n != 0 {
		t.Fatalf("Count = %d after window drained, want 0", n)
	}
	if !w.Contains("k") {
		t.Fatal("key should still be resident (no TTL configured)")
	}
	if _, err := w.Quantile("k", 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("drained window: %v, want ErrEmpty", err)
	}
	if _, err := w.Quantile("nope", 0.5); !errors.Is(err, ErrNoKey) {
		t.Fatalf("absent key: %v, want ErrNoKey", err)
	}
}

// TestWindowedMatchesSingleSketch proves the union read answers like one
// sketch over the same items: while every update fits inside the
// window, the windowed Count is exact and quantiles stay within the
// configured accuracy of a plain sketch fed the same stream.
func TestWindowedMatchesSingleSketch(t *testing.T) {
	clk := &fakeClock{}
	const slots, perEpoch = 8, 5000
	w, err := NewWindowedRegistryFloat64(WithK(32), WithSeed(11), WithWindow(slots, time.Second), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := NewFloat64(WithK(32), WithSeed(11))
	// Fill slots 0..slots-1 (nothing rotates out: exactly one window).
	v := 0.0
	for ep := 0; ep < slots; ep++ {
		clk.set(time.Duration(ep) * time.Second)
		for i := 0; i < perEpoch; i++ {
			w.Update("k", v)
			plain.Update(v)
			v++
		}
	}
	const n = slots * perEpoch
	if got := w.Count("k"); got != n {
		t.Fatalf("windowed Count = %d, want %d", got, n)
	}
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		wq, err := w.Quantile("k", phi)
		if err != nil {
			t.Fatal(err)
		}
		pq, _ := plain.Quantile(phi)
		// Both are ≈ phi·n with relative rank error; they need not match
		// bit-for-bit (different compaction coins), but both must sit
		// within a loose 5% relative band of the true quantile.
		want := phi * n
		for name, got := range map[string]float64{"windowed": wq, "plain": pq} {
			if diff := got - want; diff > 0.05*want+50 || diff < -0.05*want-50 {
				t.Errorf("phi=%v: %s quantile %v, want ≈ %v", phi, name, got, want)
			}
		}
	}
}

// TestWindowedPartialOverlap drives the ring through many rotations and
// checks the window contents are exactly the trailing slots at each step.
func TestWindowedPartialOverlap(t *testing.T) {
	clk := &fakeClock{}
	const slots = 3
	w, err := NewWindowedRegistryUint64ForTest(clk, slots)
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 20; ep++ {
		clk.set(time.Duration(ep) * time.Minute)
		w.Update(1, uint64(ep))
		// Window = epochs max(0, ep-slots+1) .. ep, one item each.
		first := ep - slots + 1
		if first < 0 {
			first = 0
		}
		wantN := uint64(ep - first + 1)
		if n := w.Count(1); n != wantN {
			t.Fatalf("ep %d: Count = %d, want %d", ep, n, wantN)
		}
		lo, _ := w.Quantile(1, 0)
		hi, _ := w.Quantile(1, 1)
		if lo != uint64(first) || hi != uint64(ep) {
			t.Fatalf("ep %d: window [%d, %d], want [%d, %d]", ep, lo, hi, first, ep)
		}
	}
}

// NewWindowedRegistryUint64ForTest builds a uint64-keyed uint64 windowed
// registry with an injected clock (minute slots).
func NewWindowedRegistryUint64ForTest(clk *fakeClock, slots int) (*WindowedRegistry[uint64, uint64], error) {
	return NewWindowedRegistry[uint64, uint64](
		func(a, b uint64) bool { return a < b },
		WithK(4), WithWindow(slots, time.Minute), clk.opt())
}

// TestWindowedClockJump: a clock that leaps far ahead must not resurrect
// stale slots whose ring position has lapped.
func TestWindowedClockJump(t *testing.T) {
	clk := &fakeClock{}
	w, _ := NewWindowedRegistryFloat64(WithK(4), WithWindow(4, time.Second), clk.opt())
	clk.set(0)
	w.Update("k", 1)
	// Jump exactly 4 epochs: same ring slot, different epoch. The old
	// value must not be visible.
	clk.set(4 * time.Second)
	w.Update("k", 2)
	if n := w.Count("k"); n != 1 {
		t.Fatalf("Count = %d after lap, want 1", n)
	}
	q, _ := w.Quantile("k", 1)
	if q != 2 {
		t.Fatalf("max = %v after lap, want 2", q)
	}
	// Jump 400 epochs: everything stale.
	clk.set(404 * time.Second)
	if n := w.Count("k"); n != 0 {
		t.Fatalf("Count = %d after long jump, want 0", n)
	}
}

func TestWindowedQuantilesIntoAndBatch(t *testing.T) {
	clk := &fakeClock{}
	w, _ := NewWindowedRegistryFloat64(WithK(16), WithSeed(1), WithWindow(2, time.Hour), clk.opt())
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	w.UpdateBatch("k", vals)
	qs, err := w.QuantilesInto("k", nil, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != 0 || qs[2] != 999 {
		t.Fatalf("QuantilesInto = %v", qs)
	}
	if _, err := w.QuantilesInto("absent", qs, []float64{0.5}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("absent key: %v", err)
	}
}

func TestWindowedTTLAndEviction(t *testing.T) {
	clk := &fakeClock{}
	w, err := NewWindowedRegistryFloat64(
		WithK(4), WithWindow(2, time.Second), WithTTL(time.Minute),
		WithMaxEntries(32), WithShards(2), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w.Update(fmt.Sprintf("k%d", i), 1)
	}
	if w.Len() > 32 {
		t.Fatalf("Len = %d exceeds cap", w.Len())
	}
	if w.Evictions() == 0 {
		t.Fatal("no evictions under churn")
	}
	clk.advance(2 * time.Minute)
	if expired := w.ExpireNow(); expired == 0 || w.Len() != 0 {
		t.Fatalf("ExpireNow expired %d, left %d residents", expired, w.Len())
	}
	// Recycled entries must come back clean.
	w.Update("fresh", 42)
	if n := w.Count("fresh"); n != 1 {
		t.Fatalf("recycled entry Count = %d, want 1", n)
	}
	q, _ := w.Quantile("fresh", 0.5)
	if q != 42 {
		t.Fatalf("recycled entry p50 = %v, want 42", q)
	}
	if !w.Delete("fresh") || w.Delete("fresh") {
		t.Fatal("Delete semantics broken")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset left residents")
	}
}

// TestWindowedConcurrent is the windowed registry's -race proof: mixed
// updates, windowed queries and rotation from many goroutines while the
// clock advances.
func TestWindowedConcurrent(t *testing.T) {
	var now int64
	var mu sync.Mutex
	w, err := NewWindowedRegistryFloat64(
		WithK(4), WithShards(4), WithWindow(4, time.Millisecond), WithMaxEntries(256),
		WithClock(func() int64 { mu.Lock(); defer mu.Unlock(); return now }))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (g+i)%100)
				w.Update(key, float64(i))
				if i%7 == 0 {
					_, _ = w.Quantile(key, 0.99)
				}
				if i%13 == 0 {
					_ = w.Count(key)
				}
				if i%97 == 0 {
					mu.Lock()
					now += int64(time.Millisecond) / 4
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
}
