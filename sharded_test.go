package req

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"req/internal/exact"
	"req/internal/rng"
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

// The TestConcurrent* tests pin the single-instance concurrent sketch,
// NewShardedFloat64 with WithShards(1): every writer and reader shares the
// one shard's lock and its published epoch snapshot.

func TestConcurrentBasic(t *testing.T) {
	c, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(1), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 1 {
		t.Fatalf("shards = %d, want 1", c.NumShards())
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

func TestConcurrentRejectsBadOptions(t *testing.T) {
	if _, err := NewShardedFloat64(WithEpsilon(7), WithShards(1)); err == nil {
		t.Fatal("bad option accepted")
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

// TestConcurrentParallelUpdatesAndReads drives eight writers through the
// one shard's lock while readers query mid-ingest, then checks the count
// and the median rank of the permutation 0..n-1 the writers split.
func TestConcurrentParallelUpdatesAndReads(t *testing.T) {
	c, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(2), WithShards(1))
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
	n := float64(writers * perWriter)
	got := float64(c.Rank(n / 2))
	if math.Abs(got-n/2-1)/(n/2) > 0.05 {
		t.Fatalf("median rank after concurrent updates: %v", got)
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

func TestConcurrentSnapshot(t *testing.T) {
	c, err := NewShardedFloat64(WithEpsilon(0.1), WithSeed(5), WithShards(1))
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
	// A NaN takes no shard, so it leaves the published epoch in place.
	sn := s.Snapshot()
	s.Update(math.NaN())
	s.UpdateBatch([]float64{math.NaN()})
	if err := s.UpdateWeighted(math.NaN(), 2); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot() != sn {
		t.Fatal("a NaN write took a shard and staled the published snapshot")
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

// TestShardedSnapshotMatchesSerde pins the equivalence the Snapshot
// contract promises: the published snapshot answers bit-identically to a
// MarshalBinary/DecodeFloat64 round-trip of the sharded sketch, and the
// snapshot's own coreset encoding round-trips to the same bytes.
func TestShardedSnapshotMatchesSerde(t *testing.T) {
	for _, shards := range []int{1, 4} {
		c, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(6), WithShards(shards))
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
				t.Fatalf("shards=%d: Rank(%v): snapshot %d, serde round-trip %d", shards, q, snap.Rank(q), roundTripped.Rank(q))
			}
		}
		for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.999, 1} {
			a, errA := snap.Quantile(phi)
			b, errB := roundTripped.Quantile(phi)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("shards=%d: Quantile(%v): snapshot %v/%v, round-trip %v/%v", shards, phi, a, errA, b, errB)
			}
		}
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
			t.Fatalf("shards=%d: snapshot encoding does not round-trip bit-identically", shards)
		}
	}
}

// TestShardedMergePathsWithinEpsilon checks the ε guarantee against the
// exact oracle on the merge shapes Sharded runs in production: 1, 4 and 8
// shards in both accuracy modes, very uneven shard loads, many tiny
// sketches merged into the heaviest writer's shard, and a read after every
// batch, so each epoch restages and re-merges the whole shard set. Writes
// come from concurrent goroutines: a single goroutine keeps hitting its
// sync.Pool affinity shard and would leave the others empty.
func TestShardedMergePathsWithinEpsilon(t *testing.T) {
	const (
		eps    = 0.05
		rounds = 24
	)
	phis := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999}
	for _, hra := range []bool{false, true} {
		for _, shards := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("hra=%v/shards=%d", hra, shards), func(t *testing.T) {
				opts := []Option{WithEpsilon(eps), WithSeed(uint64(80 + shards))}
				if hra {
					opts = append(opts, WithHighRankAccuracy())
				}
				s, err := NewShardedFloat64(append(opts, WithShards(shards))...)
				if err != nil {
					t.Fatal(err)
				}
				oracle := exact.New(0)
				r := rng.New(uint64(90 + shards))
				values := func(n int) []float64 {
					vs := make([]float64, n)
					for i := range vs {
						vs[i] = math.Exp(4 * r.NormFloat64())
						oracle.Update(vs[i])
					}
					return vs
				}
				for round := 0; round < rounds; round++ {
					// One heavy writer: a batch that grows geometrically by
					// round, so the shard taking the latest one outweighs
					// the rest, then many tiny sketches merged into that
					// (affinity) shard.
					heavy := values(100 + int(40*math.Pow(1.3, float64(round))))
					tiny := make([]*Float64, 12)
					for i := range tiny {
						tiny[i] = mustFloat64(t, append(opts, WithSeed(uint64(round*100+i)))...)
						tiny[i].UpdateBatch(values(1 + r.Intn(6)))
					}
					// Three light writers: a few batches of a few items.
					light := make([][][]float64, 3)
					for w := range light {
						for b := 0; b < 4; b++ {
							light[w] = append(light[w], values(1+r.Intn(8)))
						}
					}
					var wg sync.WaitGroup
					wg.Add(1 + len(light))
					go func() {
						defer wg.Done()
						s.UpdateBatch(heavy)
						_, _ = s.Quantile(0.5)
						for _, sk := range tiny {
							if err := s.Merge(sk); err != nil {
								t.Error(err)
							}
							_, _ = s.Quantile(0.5)
						}
					}()
					for _, batches := range light {
						go func() {
							defer wg.Done()
							for _, b := range batches {
								s.UpdateBatch(b)
								_, _ = s.Quantile(0.5)
							}
						}()
					}
					wg.Wait()
					if round%8 != 7 {
						continue
					}
					n := float64(oracle.N())
					if got := float64(s.Count()); got != n {
						t.Fatalf("round %d: count %v, want %v", round, got, n)
					}
					for _, phi := range phis {
						y, _ := oracle.Quantile(phi)
						exactRank := float64(oracle.Rank(y))
						tol := eps * exactRank
						if hra {
							tol = eps * (n - exactRank + 1)
						}
						if got := float64(s.Rank(y)); math.Abs(got-exactRank) > tol {
							t.Errorf("round %d, phi %v: rank %v, exact %v, error %v > %v",
								round, phi, got, exactRank, math.Abs(got-exactRank), tol)
						}
					}
				}
			})
		}
	}
}

// TestShardedOneShardMatchesFloat64 is the differential test behind
// replacing a mutex-guarded Float64 with ShardedFloat64 at WithShards(1):
// with the same options and seed, fed the same interleaving of Update,
// UpdateBatch, UpdateWeighted, Merge and reads (NaN and ±0 included), the
// one-shard sketch answers every Reader method, its Snapshot, and its
// serialized state exactly as a Float64 does. Floats compare with ==, so
// ±0 match: the published merged sketch settles its level-0 tail while the
// Float64 reads through it, so equal items may be kept as different copies.
func TestShardedOneShardMatchesFloat64(t *testing.T) {
	probes := probeGrid(1000)
	for _, hra := range []bool{false, true} {
		t.Run(fmt.Sprintf("hra=%v", hra), func(t *testing.T) {
			opts := []Option{WithEpsilon(0.05), WithSeed(71)}
			if hra {
				opts = append(opts, WithHighRankAccuracy())
			}
			f := mustFloat64(t, opts...)
			sh, err := NewShardedFloat64(append(opts, WithShards(1))...)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(72)
			value := func() float64 {
				switch r.Intn(40) {
				case 0:
					return math.NaN()
				case 1:
					return math.Copysign(0, -1)
				default:
					return float64(r.Intn(1000))
				}
			}
			for step := 0; step < 600; step++ {
				switch r.Intn(5) {
				case 0:
					for i := r.Intn(8); i >= 0; i-- {
						v := value()
						f.Update(v)
						sh.Update(v)
					}
				case 1:
					batch := make([]float64, r.Intn(400))
					for i := range batch {
						batch[i] = value()
					}
					f.UpdateBatch(batch)
					sh.UpdateBatch(batch)
				case 2:
					v, w := value(), uint64(1+r.Intn(50))
					if f.UpdateWeighted(v, w) != nil || sh.UpdateWeighted(v, w) != nil {
						t.Fatal("UpdateWeighted failed")
					}
				case 3:
					other := mustFloat64(t, append(opts, WithSeed(uint64(1000+step)))...)
					for i := r.Intn(300); i >= 0; i-- {
						other.Update(value())
					}
					if f.Merge(other) != nil || sh.Merge(other) != nil {
						t.Fatal("Merge failed")
					}
				}
				if r.Intn(3) == 0 {
					assertReaderEquiv(t, fmt.Sprintf("step %d", step), f, sh, probes)
				}
			}
			assertReaderEquiv(t, "end", f, sh, probes)
			assertReaderEquiv(t, "snapshot", f.Snapshot(), sh.Snapshot(), probes)

			// The full encodings restore to sketches that answer and resume
			// identically (the bytes may differ in which copy of an equal
			// item each level keeps).
			fb, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sb, err := sh.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			fd, err := DecodeFloat64(fb)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := DecodeFloat64(sb)
			if err != nil {
				t.Fatal(err)
			}
			assertReaderEquiv(t, "decoded", fd, sd, probes)
			more := permStream(20000, 73)
			fd.UpdateBatch(more)
			sd.UpdateBatch(more)
			assertReaderEquiv(t, "resumed", fd, sd, probes)
			if fd.NumLevels() != sd.NumLevels() || fd.K() != sd.K() {
				t.Fatalf("resumed geometry %d levels k=%d, want %d levels k=%d", sd.NumLevels(), sd.K(), fd.NumLevels(), fd.K())
			}
		})
	}
}
