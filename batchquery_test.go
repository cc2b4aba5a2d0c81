package req

import (
	"math"
	"sync"
	"testing"
)

// Tests for the batch query surface (RankBatch / NormalizedRankBatch /
// QuantilesInto / CDFInto / PMFInto) across the public container types.

func TestFloat64BatchQueriesMatchSingle(t *testing.T) {
	s, err := NewFloat64(WithEpsilon(0.05), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch(permStream(40000, 22))
	probes := permStream(300, 23)
	// A NaN probe must leave every other probe's rank as Rank answers it,
	// inside an unsorted set and inside a set that NaN makes look sorted.
	withNaN := append(append(append([]float64(nil), probes[:150]...), math.NaN()), probes[150:]...)
	sortedNaN := []float64{1000, math.NaN(), 20000, 39000}
	for _, ys := range [][]float64{probes, withNaN, sortedNaN} {
		ranks := s.RankBatch(nil, ys)
		nranks := s.NormalizedRankBatch(nil, ys)
		for i, y := range ys {
			if want := s.Rank(y); ranks[i] != want {
				t.Fatalf("RankBatch[%d] (y=%v) = %d, single %d", i, y, ranks[i], want)
			}
			if want := s.NormalizedRank(y); nranks[i] != want {
				t.Fatalf("NormalizedRankBatch[%d] (y=%v) = %v, single %v", i, y, nranks[i], want)
			}
		}
	}
	phis := []float64{0.99, 0.5, 0.01, 1, 0}
	qs, err := s.QuantilesInto(nil, phis)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		want, err := s.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if qs[i] != want {
			t.Fatalf("QuantilesInto(%v) = %v, single %v", phi, qs[i], want)
		}
	}
	// Destination reuse round-trips.
	qs2, err := s.QuantilesInto(qs, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs2) != 2 {
		t.Fatalf("reused dst length %d", len(qs2))
	}
	splits := []float64{1000, 20000, 39000}
	cdf, err := s.CDFInto(nil, splits)
	if err != nil {
		t.Fatal(err)
	}
	cdfOld, err := s.CDF(splits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cdf {
		if cdf[i] != cdfOld[i] {
			t.Fatalf("CDFInto[%d] = %v, CDF %v", i, cdf[i], cdfOld[i])
		}
	}
	pmf, err := s.PMFInto(nil, splits)
	if err != nil {
		t.Fatal(err)
	}
	pmfOld, err := s.PMF(splits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pmf {
		if pmf[i] != pmfOld[i] {
			t.Fatalf("PMFInto[%d] = %v, PMF %v", i, pmf[i], pmfOld[i])
		}
	}
}

func TestUint64BatchQueries(t *testing.T) {
	s, err := NewUint64(WithEpsilon(0.05), WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, 30000)
	for i := range vals {
		vals[i] = uint64(i * 3)
	}
	s.UpdateBatch(vals)
	probes := []uint64{0, 1, 44999, 45000, 90000}
	ranks := s.RankBatch(nil, probes)
	for i, y := range probes {
		if want := s.Rank(y); ranks[i] != want {
			t.Fatalf("RankBatch[%d] = %d, single %d", i, ranks[i], want)
		}
	}
}

func TestShardedBatchQueries(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(41), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch(permStream(30000, 42))
	probes := permStream(200, 43)
	ranks := s.RankBatch(nil, probes)
	nranks := s.NormalizedRankBatch(nil, probes)
	for i, y := range probes {
		if want := s.Rank(y); ranks[i] != want {
			t.Fatalf("sharded RankBatch[%d] = %d, single %d", i, ranks[i], want)
		}
		if want := s.NormalizedRank(y); nranks[i] != want {
			t.Fatalf("sharded NormalizedRankBatch[%d] = %v, single %v", i, nranks[i], want)
		}
	}
	qs, err := s.QuantilesInto(nil, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range []float64{0.1, 0.5, 0.9} {
		want, err := s.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if qs[i] != want {
			t.Fatalf("sharded QuantilesInto(%v) = %v, single %v", phi, qs[i], want)
		}
	}
	if _, err := s.CDFInto(nil, []float64{100, 200}); err != nil {
		t.Fatal(err)
	}
	pmf, err := s.PMFInto(nil, []float64{100, 20000})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, p := range pmf {
		total += p
	}
	if len(pmf) != 3 || total < 0.999 || total > 1.001 {
		t.Fatalf("sharded PMFInto = %v", pmf)
	}
}

func TestShardedBatchQueriesUnderConcurrentWrites(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.1), WithSeed(51), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch(permStream(5000, 52))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals := permStream(1000, 53)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Update(vals[i%len(vals)])
			}
		}
	}()
	probes := permStream(64, 54)
	sorted := append([]float64(nil), probes...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for q := 0; q < 50; q++ {
		// Every batch is answered from one point-in-time snapshot, so ranks
		// over sorted probes must be monotone even while writes land.
		rs := s.RankBatch(nil, sorted)
		for i := 1; i < len(rs); i++ {
			if rs[i] < rs[i-1] {
				t.Fatalf("batch ranks from one snapshot not monotone: %d < %d", rs[i], rs[i-1])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedBatchQueriesConcurrentReaders runs batch readers, each with
// its own destination slices, against one shard while one of them writes;
// afterwards batch and single answers agree.
func TestShardedBatchQueriesConcurrentReaders(t *testing.T) {
	c, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(61), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	c.UpdateBatch(permStream(20000, 62))
	probes := permStream(100, 63)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dstR := make([]uint64, 0, len(probes))
			dstN := make([]float64, 0, len(probes))
			for i := 0; i < 25; i++ {
				dstR = c.RankBatch(dstR, probes)
				dstN = c.NormalizedRankBatch(dstN, probes)
				if _, err := c.QuantilesInto(nil, []float64{0.5, 0.99}); err != nil {
					panic(err)
				}
				if w == 0 {
					c.Update(float64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	ranks := c.RankBatch(nil, probes)
	for i, y := range probes {
		if want := c.Rank(y); ranks[i] != want {
			t.Fatalf("concurrent RankBatch[%d] = %d, single %d", i, ranks[i], want)
		}
	}
	if _, err := c.CDFInto(nil, []float64{5, 500, 15000}); err != nil {
		t.Fatal(err)
	}
	pmf, err := c.PMFInto(nil, []float64{500})
	if err != nil || len(pmf) != 2 {
		t.Fatalf("concurrent PMFInto = %v, %v", pmf, err)
	}
}
