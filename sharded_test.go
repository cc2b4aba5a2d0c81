package req

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestShardedBasic(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(1), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("shards = %d, want 4", s.NumShards())
	}
	if !s.Empty() {
		t.Fatal("new sketch not empty")
	}
	s.Update(1)
	s.UpdateBatch([]float64{2, 3})
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Rank(2) != 2 {
		t.Fatalf("rank = %d", s.Rank(2))
	}
	q, err := s.Quantile(0.5)
	if err != nil || q != 2 {
		t.Fatalf("quantile = %v, %v", q, err)
	}
	mn, _ := s.Min()
	mx, _ := s.Max()
	if mn != 1 || mx != 3 {
		t.Fatal("min/max wrong")
	}
	if s.ItemsRetained() != 3 {
		t.Fatalf("items = %d", s.ItemsRetained())
	}
}

func TestShardedShardCountRounding(t *testing.T) {
	s, err := NewShardedFloat64(WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("shards = %d, want next power of two 4", s.NumShards())
	}
	auto, err := NewShardedFloat64()
	if err != nil {
		t.Fatal(err)
	}
	if n := auto.NumShards(); n < 1 || n&(n-1) != 0 {
		t.Fatalf("automatic shard count %d is not a positive power of two", n)
	}
}

func TestShardedRejectsBadOptions(t *testing.T) {
	if _, err := NewShardedFloat64(WithEpsilon(7)); err == nil {
		t.Fatal("bad epsilon accepted")
	}
	if _, err := NewShardedFloat64(WithShards(-1)); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestShardedConcurrentIngestAccuracy is the -race workout for the sharded
// subsystem: concurrent writers, concurrent readers querying mid-ingest,
// and periodic merges of externally built plain sketches. The combined
// input is a partition of 0..n-1, so exact ranks are known and the
// relative rank error after the final shard merge must stay within the
// configured ε.
func TestShardedConcurrentIngestAccuracy(t *testing.T) {
	const (
		eps       = 0.05
		writers   = 8
		mergers   = 2
		perBlock  = 20000
		numBlocks = writers + mergers
	)
	s, err := NewShardedFloat64(WithEpsilon(eps), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Writers stream disjoint blocks of the permutation.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perBlock; i++ {
				s.Update(float64(base*perBlock + i))
			}
		}(w)
	}
	// Mergers sketch their blocks privately and merge them in, as a remote
	// shard would after a network hop.
	for m := 0; m < mergers; m++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			sk, err := NewFloat64(WithEpsilon(eps), WithSeed(uint64(100+base)))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perBlock; i++ {
				sk.Update(float64(base*perBlock + i))
			}
			if err := s.Merge(sk); err != nil {
				t.Error(err)
			}
		}(writers + m)
	}
	// Readers query while ingestion is in flight; answers must be sane
	// (ordered quantiles, monotone counts) even if approximate.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastCount uint64
			for i := 0; i < 400; i++ {
				n := s.Count()
				if n < lastCount {
					t.Errorf("count went backwards: %d after %d", n, lastCount)
					return
				}
				lastCount = n
				_ = s.Rank(float64(i * 97))
				qs, err := s.Quantiles([]float64{0.25, 0.5, 0.75})
				if err == nil && (qs[0] > qs[1] || qs[1] > qs[2]) {
					t.Errorf("quantiles out of order: %v", qs)
					return
				}
			}
		}()
	}
	wg.Wait()

	n := uint64(numBlocks * perBlock)
	if s.Count() != n {
		t.Fatalf("count = %d, want %d", s.Count(), n)
	}
	// Values were a permutation of 0..n-1: the true rank of value v is v+1.
	for _, frac := range []float64{0.25, 0.5, 0.75, 0.95} {
		rank := float64(n) * frac
		got := float64(s.Rank(rank - 1))
		if rel := math.Abs(got-rank) / rank; rel > eps {
			t.Errorf("rank error at %.0f%%: |%v - %v|/%v = %v > eps %v",
				100*frac, got, rank, rank, rel, eps)
		}
	}
}

func TestShardedSnapshotIndependent(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.1), WithSeed(5), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		s.Update(float64(i))
	}
	snap := s.Snapshot()
	if snap.Count() != 5000 {
		t.Fatalf("snapshot count = %d", snap.Count())
	}
	// Between writes, Snapshot hands out the published epoch snapshot: no
	// per-call clone.
	if again := s.Snapshot(); again != snap {
		t.Fatal("Snapshot cloned the published epoch snapshot")
	}
	s.Update(99999)
	if snap.Count() != 5000 {
		t.Fatal("snapshot aliases live sketch")
	}
	if mx, _ := snap.Max(); mx == 99999 {
		t.Fatal("snapshot observed a post-capture write")
	}
	// The write started a new epoch: the next snapshot sees it, the old one
	// stays frozen.
	snap2 := s.Snapshot()
	if snap2 == snap || snap2.Count() != 5001 {
		t.Fatalf("post-write snapshot: same=%v count=%d", snap2 == snap, snap2.Count())
	}
}

func TestShardedMarshalRoundTrip(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(9), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		s.Update(float64(i))
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeFloat64(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Count() != s.Count() {
		t.Fatalf("decoded count = %d, want %d", dec.Count(), s.Count())
	}
	blob2, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding differs")
	}
}

func TestShardedFloat64IgnoresNaN(t *testing.T) {
	s, err := NewShardedFloat64(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Update(math.NaN())
	s.UpdateBatch([]float64{1, math.NaN(), 2, math.NaN(), 3})
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3 (NaNs must be dropped)", s.Count())
	}
	mn, _ := s.Min()
	mx, _ := s.Max()
	if mn != 1 || mx != 3 {
		t.Fatalf("min/max = %v/%v", mn, mx)
	}
}

func TestShardedMergeIncompatible(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.01))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewFloat64(WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	other.Update(1)
	if err := s.Merge(other); err == nil {
		t.Fatal("merge of incompatible configs accepted")
	}
	if err := s.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestShardedReset(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.05), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		s.Update(float64(i))
	}
	if _, err := s.Quantile(0.5); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if !s.Empty() {
		t.Fatalf("count after reset = %d", s.Count())
	}
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("quantile on reset sketch: %v, want ErrEmpty", err)
	}
	s.Update(42)
	if q, err := s.Quantile(0.5); err != nil || q != 42 {
		t.Fatalf("post-reset quantile = %v, %v", q, err)
	}
}

func TestShardedUint64(t *testing.T) {
	s, err := NewShardedUint64(WithEpsilon(0.05), WithSeed(3), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 5000; i++ {
				s.Update(base*5000 + i)
			}
		}(uint64(w))
	}
	wg.Wait()
	if s.Count() != 20000 {
		t.Fatalf("count = %d", s.Count())
	}
	other, err := NewUint64(WithEpsilon(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(20000); i < 25000; i++ {
		other.Update(i)
	}
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 25000 {
		t.Fatalf("merged count = %d", s.Count())
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeUint64(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Count() != 25000 {
		t.Fatalf("decoded count = %d", dec.Count())
	}
}

func TestShardedGenericType(t *testing.T) {
	type span struct {
		millis float64
		id     int
	}
	s, err := NewSharded(func(a, b span) bool { return a.millis < b.millis },
		WithEpsilon(0.05), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Update(span{millis: float64(i), id: i})
	}
	med, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med.millis-500) > 0.05*1000 {
		t.Fatalf("median span = %+v", med)
	}
	cdf, err := s.CDF([]span{{millis: 250}, {millis: 750}})
	if err != nil || len(cdf) != 3 {
		t.Fatalf("CDF = %v, %v", cdf, err)
	}
}

// TestShardedSnapshotCacheReuse checks the epoch logic: with no writes in
// between, repeated queries reuse one published snapshot; a write
// invalidates it.
func TestShardedSnapshotCacheReuse(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.05), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Update(float64(i))
	}
	_, _ = s.Quantile(0.5)
	first := s.snap.Load()
	if first == nil {
		t.Fatal("no snapshot published after query")
	}
	_, _ = s.Quantile(0.9)
	_ = s.Rank(10)
	if s.snap.Load() != first {
		t.Fatal("snapshot rebuilt although no write intervened")
	}
	s.Update(-1)
	_, _ = s.Quantile(0.5)
	if s.snap.Load() == first {
		t.Fatal("stale snapshot served after a write")
	}
}
