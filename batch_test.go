package req

import (
	"math"
	"sync"
	"testing"
)

func TestFloat64UpdateBatchFiltersNaN(t *testing.T) {
	s, err := NewFloat64(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch([]float64{1, math.NaN(), 2, math.NaN(), 3})
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3 (NaNs must be dropped)", s.Count())
	}
	mn, _ := s.Min()
	mx, _ := s.Max()
	if mn != 1 || mx != 3 {
		t.Fatalf("min/max = %v/%v", mn, mx)
	}
	// All-NaN and empty batches are no-ops.
	s.UpdateBatch([]float64{math.NaN()})
	s.UpdateBatch(nil)
	if s.Count() != 3 {
		t.Fatalf("count = %d after no-op batches", s.Count())
	}
}

func TestUint64UpdateBatch(t *testing.T) {
	s, err := NewUint64(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, 100000)
	for i := range vals {
		vals[i] = uint64(i)
	}
	s.UpdateBatch(vals)
	if s.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d", s.Count())
	}
	q, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q < 40000 || q > 60000 {
		t.Fatalf("median %d implausible", q)
	}
}

func TestShardedUpdateBatchConcurrent(t *testing.T) {
	s, err := NewShardedFloat64(WithSeed(5), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perBatch, batches = 8, 1000, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]float64, perBatch)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = float64(w*perBatch*batches + b*perBatch + i)
				}
				s.UpdateBatch(batch)
			}
		}(w)
	}
	wg.Wait()
	want := uint64(writers * perBatch * batches)
	if s.Count() != want {
		t.Fatalf("count = %d, want %d", s.Count(), want)
	}
	med, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(want)
	if med < 0.3*n || med > 0.7*n {
		t.Fatalf("median %v implausible for 0..%v", med, n-1)
	}
}

func TestConcurrentFloat64UpdateBatch(t *testing.T) {
	c, err := NewConcurrentFloat64(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]float64, 500)
			for b := 0; b < 10; b++ {
				for i := range batch {
					batch[i] = float64(i)
				}
				c.UpdateBatch(batch)
				_, _ = c.Quantile(0.9) // interleave reads
			}
		}(w)
	}
	wg.Wait()
	if c.Count() != 4*10*500 {
		t.Fatalf("count = %d", c.Count())
	}
}
