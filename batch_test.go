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

// TestShardedUpdateBatchNaNConcurrent feeds NaN-bearing batches from
// several writers into one shard while they read between batches: every
// NaN is dropped and every other value counted.
func TestShardedUpdateBatchNaNConcurrent(t *testing.T) {
	s, err := NewShardedFloat64(WithSeed(2), WithShards(1))
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
					if i%50 == 7 {
						batch[i] = math.NaN()
					}
				}
				s.UpdateBatch(batch)
				_, _ = s.Quantile(0.9) // interleave reads
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != 4*10*490 {
		t.Fatalf("count = %d, want %d (NaNs must be dropped)", s.Count(), 4*10*490)
	}
	if mx, _ := s.Max(); mx != 499 {
		t.Fatalf("max = %v", mx)
	}
}

// TestFloat64ShardedUpdateWeightedIgnoresNaN pins that the float64 fronts
// drop a NaN given to UpdateWeighted as Update does: it must not count,
// must not become the min or max, and must not reach an encoding the
// decoder refuses.
func TestFloat64ShardedUpdateWeightedIgnoresNaN(t *testing.T) {
	type weighted interface {
		Reader[float64]
		UpdateWeighted(v float64, weight uint64) error
		Update(v float64)
		MarshalBinary() ([]byte, error)
	}
	f := mustFloat64(t, WithSeed(4))
	sh, err := NewShardedFloat64(WithSeed(4), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]weighted{"Float64": f, "ShardedFloat64": sh} {
		if err := s.UpdateWeighted(math.NaN(), 5); err != nil {
			t.Fatalf("%s: UpdateWeighted(NaN): %v", name, err)
		}
		if s.Count() != 0 {
			t.Fatalf("%s: count = %d after UpdateWeighted(NaN, 5)", name, s.Count())
		}
		if err := s.UpdateWeighted(1, 2); err != nil {
			t.Fatal(err)
		}
		s.Update(3)
		mn, _ := s.Min()
		mx, _ := s.Max()
		if s.Count() != 3 || mn != 1 || mx != 3 {
			t.Fatalf("%s: count/min/max = %d/%v/%v, want 3/1/3", name, s.Count(), mn, mx)
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFloat64(blob); err != nil {
			t.Fatalf("%s: encoding does not decode: %v", name, err)
		}
	}
}
