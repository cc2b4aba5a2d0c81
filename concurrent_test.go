package req

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"
)

func TestConcurrentBasic(t *testing.T) {
	c, err := NewConcurrentFloat64(WithEpsilon(0.05), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	c.Update(1)
	c.UpdateBatch([]float64{2, 3})
	if c.Count() != 3 {
		t.Fatalf("count = %d", c.Count())
	}
	if c.Rank(2) != 2 {
		t.Fatalf("rank = %d", c.Rank(2))
	}
	q, err := c.Quantile(0.5)
	if err != nil || q != 2 {
		t.Fatalf("quantile = %v, %v", q, err)
	}
	mn, _ := c.Min()
	mx, _ := c.Max()
	if mn != 1 || mx != 3 {
		t.Fatal("min/max wrong")
	}
	if c.ItemsRetained() != 3 {
		t.Fatalf("items = %d", c.ItemsRetained())
	}
}

func TestConcurrentParallelUpdatesAndReads(t *testing.T) {
	c, err := NewConcurrentFloat64(WithEpsilon(0.05), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Update(float64(base*perWriter + i))
			}
		}(wi)
	}
	// Concurrent readers.
	for ri := 0; ri < 4; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_ = c.Rank(float64(i * 37))
				_ = c.Count()
			}
		}()
	}
	wg.Wait()
	if c.Count() != writers*perWriter {
		t.Fatalf("count = %d, want %d", c.Count(), writers*perWriter)
	}
	// Accuracy survives concurrent construction (values were a permutation
	// of 0..n-1 split across writers).
	n := float64(writers * perWriter)
	got := float64(c.Rank(n / 2))
	if math.Abs(got-n/2-1)/(n/2) > 0.05 {
		t.Fatalf("median rank after concurrent updates: %v", got)
	}
}

func TestConcurrentQuantilesAndMerge(t *testing.T) {
	c, err := NewConcurrentFloat64(WithEpsilon(0.05), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	other := mustFloat64(t, WithEpsilon(0.05), WithSeed(4))
	for i := 0; i < 10000; i++ {
		c.Update(float64(i))
		other.Update(float64(10000 + i))
	}
	if err := c.Merge(other); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 20000 {
		t.Fatalf("merged count = %d", c.Count())
	}
	qs, err := c.Quantiles([]float64{0.25, 0.75})
	if err != nil || len(qs) != 2 {
		t.Fatalf("quantiles: %v %v", qs, err)
	}
	if qs[0] > qs[1] {
		t.Fatal("quantiles not ordered")
	}
}

func TestConcurrentSnapshot(t *testing.T) {
	c, err := NewConcurrentFloat64(WithEpsilon(0.1), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		c.Update(float64(i))
	}
	snap := c.Snapshot()
	if snap.Count() != 5000 {
		t.Fatalf("snapshot count = %d", snap.Count())
	}
	// Snapshot is independent.
	c.Update(99999)
	if snap.Count() != 5000 {
		t.Fatal("snapshot aliases live sketch")
	}
	if mx, _ := snap.Max(); mx == 99999 {
		t.Fatal("snapshot observed a post-capture write")
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFloat64(blob); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQuantileUsesReadLock is the regression test for the old
// behavior where Quantile/Quantiles took the exclusive lock: with the view
// frozen, a query must complete while another reader holds the read lock.
// Under the old code this deadlocks (the exclusive lock waits for the held
// read lock), so the timeout failing means queries serialize readers again.
func TestConcurrentQuantileUsesReadLock(t *testing.T) {
	c, err := NewConcurrentFloat64(WithEpsilon(0.05), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		c.Update(float64(i))
	}
	// Freeze the sorted view; from here queries are pure reads.
	if _, err := c.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	done := make(chan error, 1)
	go func() {
		if _, err := c.Quantile(0.5); err != nil {
			done <- err
			return
		}
		_, err := c.Quantiles([]float64{0.1, 0.9})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Quantile blocked while another goroutine held the read lock; queries must not take the exclusive lock")
	}
}

// TestConcurrentSnapshotMatchesSerde pins the equivalence the Snapshot
// contract promises: the immutable snapshot answers bit-identically to a
// full MarshalBinary/DecodeFloat64 round-trip of the wrapped sketch, and
// the snapshot's own coreset encoding round-trips to the same answers.
func TestConcurrentSnapshotMatchesSerde(t *testing.T) {
	c, err := NewConcurrentFloat64(WithEpsilon(0.05), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30000; i++ {
		c.Update(float64(i % 1000))
	}
	snap := c.Snapshot()
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	roundTripped, err := DecodeFloat64(blob)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0.0; q <= 1000; q += 17 {
		if snap.Rank(q) != roundTripped.Rank(q) {
			t.Fatalf("Rank(%v): snapshot %d, serde round-trip %d", q, snap.Rank(q), roundTripped.Rank(q))
		}
	}
	for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.999, 1} {
		a, errA := snap.Quantile(phi)
		b, errB := roundTripped.Quantile(phi)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("Quantile(%v): snapshot %v/%v, round-trip %v/%v", phi, a, errA, b, errB)
		}
	}
	// The snapshot's coreset encoding re-encodes bit-identically.
	snapBlob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalSnapshotFloat64(snapBlob)
	if err != nil {
		t.Fatal(err)
	}
	snapBlob2, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBlob, snapBlob2) {
		t.Fatal("snapshot encoding does not round-trip bit-identically")
	}
}

func TestConcurrentRejectsBadOptions(t *testing.T) {
	if _, err := NewConcurrentFloat64(WithEpsilon(7)); err == nil {
		t.Fatal("bad option accepted")
	}
}
