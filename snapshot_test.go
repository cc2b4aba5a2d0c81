package req

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
)

// probeGrid returns probes spanning [0, hi] including off-grid values.
func probeGrid(hi float64) []float64 {
	ps := make([]float64, 0, 70)
	for i := 0; i <= 64; i++ {
		ps = append(ps, hi*float64(i)/64)
	}
	ps = append(ps, -1, hi+1, hi/3+0.5)
	return ps
}

// assertReaderEquiv checks that two Readers answer the full query surface
// identically on the probe grid.
func assertReaderEquiv(t *testing.T, name string, a, b Reader[float64], probes []float64) {
	t.Helper()
	if a.Count() != b.Count() || a.Empty() != b.Empty() || a.ItemsRetained() != b.ItemsRetained() {
		t.Fatalf("%s: count/empty/retained mismatch: %d/%v/%d vs %d/%v/%d", name,
			a.Count(), a.Empty(), a.ItemsRetained(), b.Count(), b.Empty(), b.ItemsRetained())
	}
	amn, aok := a.Min()
	bmn, bok := b.Min()
	amx, _ := a.Max()
	bmx, _ := b.Max()
	if amn != bmn || amx != bmx || aok != bok {
		t.Fatalf("%s: min/max mismatch", name)
	}
	for _, p := range probes {
		if a.Rank(p) != b.Rank(p) || a.RankExclusive(p) != b.RankExclusive(p) ||
			a.NormalizedRank(p) != b.NormalizedRank(p) {
			t.Fatalf("%s: rank mismatch at %v: %d/%d/%v vs %d/%d/%v", name, p,
				a.Rank(p), a.RankExclusive(p), a.NormalizedRank(p),
				b.Rank(p), b.RankExclusive(p), b.NormalizedRank(p))
		}
	}
	if !slices.Equal(a.RankBatch(nil, probes), b.RankBatch(nil, probes)) ||
		!slices.Equal(a.NormalizedRankBatch(nil, probes), b.NormalizedRankBatch(nil, probes)) {
		t.Fatalf("%s: RankBatch/NormalizedRankBatch mismatch", name)
	}
	if a.Empty() {
		return
	}
	phis := []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	qa, errA := a.Quantiles(phis)
	qb, errB := b.Quantiles(phis)
	if errA != nil || errB != nil {
		t.Fatalf("%s: quantiles errs %v %v", name, errA, errB)
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("%s: quantile(%v) %v vs %v", name, phis[i], qa[i], qb[i])
		}
	}
	splits := probes[:65] // ascending prefix of the grid
	ca, errA := a.CDF(splits)
	cb, errB := b.CDF(splits)
	if errA != nil || errB != nil {
		t.Fatalf("%s: cdf errs %v %v", name, errA, errB)
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%s: cdf[%d] %v vs %v", name, i, ca[i], cb[i])
		}
	}
	pa, _ := a.PMF(splits)
	pb, _ := b.PMF(splits)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s: pmf[%d] %v vs %v", name, i, pa[i], pb[i])
		}
	}
	qia, _ := a.QuantilesInto(nil, phis)
	qib, _ := b.QuantilesInto(nil, phis)
	cia, _ := a.CDFInto(nil, splits)
	cib, _ := b.CDFInto(nil, splits)
	pia, _ := a.PMFInto(nil, splits)
	pib, _ := b.PMFInto(nil, splits)
	if !slices.Equal(qia, qib) || !slices.Equal(cia, cib) || !slices.Equal(pia, pib) {
		t.Fatalf("%s: QuantilesInto/CDFInto/PMFInto mismatch", name)
	}
	if !slices.Equal(coresetRuns(a), coresetRuns(b)) {
		t.Fatalf("%s: coreset mismatch", name)
	}
}

// coresetRuns collects r's coreset with each run of equal items folded
// into one entry carrying the run's total weight: two views of equal
// coresets may order equal items (+0 and −0) differently, and a live read
// that settled the levels early may have let a compaction keep the other
// sign, so only the runs compare.
func coresetRuns(r Reader[float64]) []weightedItem {
	var out []weightedItem
	for x, w := range r.All() {
		if n := len(out); n > 0 && out[n-1].Item == x {
			out[n-1].Weight += w
			continue
		}
		out = append(out, weightedItem{x, w})
	}
	return out
}

// TestSnapshotMatchesLiveAcrossLifecycles is the equivalence backbone for
// the Snapshot contract: at several points of a sketch's life — plain
// stream, after a merge, after stream-length growth, after a serde
// round-trip — the captured Snapshot answers every query exactly as the
// live sketch does at capture time.
func TestSnapshotMatchesLiveAcrossLifecycles(t *testing.T) {
	probes := probeGrid(120000)
	stages := []struct {
		name  string
		build func(t *testing.T) *Float64
	}{
		{"stream", func(t *testing.T) *Float64 {
			s := mustFloat64(t, WithEpsilon(0.04), WithSeed(11))
			for i := 0; i < 60000; i++ {
				s.Update(float64((i * 31) % 60000))
			}
			return s
		}},
		{"merged", func(t *testing.T) *Float64 {
			a := mustFloat64(t, WithEpsilon(0.04), WithSeed(12))
			b := mustFloat64(t, WithEpsilon(0.04), WithSeed(13))
			for i := 0; i < 30000; i++ {
				a.Update(float64(i))
				b.Update(float64(60000 - i))
			}
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"grown", func(t *testing.T) *Float64 {
			s := mustFloat64(t, WithEpsilon(0.04), WithSeed(14), WithKnownN(100))
			for i := 0; i < 120000; i++ {
				s.Update(float64(i % 997))
			}
			return s
		}},
		{"serde", func(t *testing.T) *Float64 {
			s := mustFloat64(t, WithEpsilon(0.04), WithSeed(15))
			for i := 0; i < 40000; i++ {
				s.Update(math.Sqrt(float64(i)) * 300)
			}
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			r, err := DecodeFloat64(blob)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"hra", func(t *testing.T) *Float64 {
			s := mustFloat64(t, WithEpsilon(0.04), WithSeed(16), WithHighRankAccuracy())
			for i := 0; i < 50000; i++ {
				s.Update(float64((i * 17) % 50000))
			}
			return s
		}},
		{"empty", func(t *testing.T) *Float64 {
			return mustFloat64(t, WithEpsilon(0.04))
		}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			s := st.build(t)
			snap := s.Snapshot()
			assertReaderEquiv(t, st.name, s, snap, probes)

			// Snapshot serde round-trips to bit-identical answers and bytes.
			blob, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := UnmarshalSnapshotFloat64(blob)
			if err != nil {
				t.Fatal(err)
			}
			assertReaderEquiv(t, st.name+"/serde", snap, restored, probes)
			blob2, err := restored.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("snapshot encoding not canonical")
			}

			// Mutating the source must not move the snapshot.
			s.Update(1e12)
			if snap.Rank(2e12) != restored.Rank(2e12) {
				t.Fatal("snapshot observed post-capture write")
			}
		})
	}
}

// TestLiveQuantilesMatchSnapshot: a live QuantilesInto after appends
// selects over the settled levels and builds no view; a Snapshot taken
// right after it rebuilds the view. Both must answer alike under the order
// (==: the selection and the view may return different items among those
// equal under <, so +0 where the view has −0), with tails accumulated over
// several live reads and across compactions. That no live read builds a
// view is pinned in internal/core (liveread_test.go).
func TestLiveQuantilesMatchSnapshot(t *testing.T) {
	negZero := math.Copysign(0, -1)
	phis := []float64{0.5, 0, 0.001, 0.1, 0.25, 0.9, 0.99, 0.999, 1}
	for _, hra := range []bool{false, true} {
		opts := []Option{WithEpsilon(0.05), WithSeed(7)}
		if hra {
			opts = append(opts, WithHighRankAccuracy())
		}
		s, err := NewFloat64(opts...)
		if err != nil {
			t.Fatal(err)
		}
		x := uint64(0x9e3779b97f4a7c15)
		draw := func() float64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			switch x % 4 {
			case 0:
				return 0
			case 1:
				return negZero
			}
			return float64(x>>40%512) - 256
		}
		for i := 0; i < 20000; i++ {
			s.Update(draw())
		}
		_ = s.Snapshot()
		var live []float64
		for round := 0; round < 400; round++ {
			for i := 0; i < []int{1, 64, 7, 300, 64, 2}[round%6]; i++ {
				s.Update(draw())
			}
			if live, err = s.QuantilesInto(live, phis); err != nil {
				t.Fatal(err)
			}
			if round%3 != 2 {
				continue // let the tail accumulate over several reads
			}
			want, err := s.Snapshot().QuantilesInto(nil, phis)
			if err != nil {
				t.Fatal(err)
			}
			for i, phi := range phis {
				if live[i] != want[i] {
					t.Fatalf("hra=%v round %d φ=%v: live %v, snapshot %v", hra, round, phi, live[i], want[i])
				}
			}
		}
	}
}

// TestSnapshotUint64 covers the uint64 instantiation end to end.
func TestSnapshotUint64(t *testing.T) {
	s, err := NewUint64(WithEpsilon(0.05), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30000; i++ {
		s.Update(i * 13 % 30011)
	}
	snap := s.Snapshot()
	if snap.Count() != s.Count() || snap.Rank(15000) != s.Rank(15000) {
		t.Fatal("uint64 snapshot disagrees with live sketch")
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalSnapshotUint64(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{0, 1, 14999, 30010, 50000} {
		if restored.Rank(p) != snap.Rank(p) {
			t.Fatalf("uint64 snapshot serde mismatch at %d", p)
		}
	}
	// Cross-type decoding is rejected.
	if _, err := UnmarshalSnapshotFloat64(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("float64 decoder accepted uint64 snapshot: %v", err)
	}
}

// TestSnapshotRecordKindsRejected pins the format split: full-sketch
// decoders reject snapshot records and vice versa, both with ErrCorrupt.
func TestSnapshotRecordKindsRejected(t *testing.T) {
	s := mustFloat64(t, WithEpsilon(0.1), WithSeed(4))
	for i := 0; i < 1000; i++ {
		s.Update(float64(i))
	}
	snapBlob, err := s.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sketchBlob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFloat64(snapBlob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeFloat64 accepted a snapshot record: %v", err)
	}
	if _, err := UnmarshalSnapshotFloat64(sketchBlob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("UnmarshalSnapshotFloat64 accepted a full sketch record: %v", err)
	}
}

// TestSnapshotGenericItemsDontSerialize: snapshot serialization is only
// defined for the float64/uint64 instantiations.
func TestSnapshotGenericItemsDontSerialize(t *testing.T) {
	type pair struct{ a, b int }
	s, err := New(func(x, y pair) bool { return x.a < y.a })
	if err != nil {
		t.Fatal(err)
	}
	s.Update(pair{1, 2})
	if _, err := s.Snapshot().MarshalBinary(); err == nil {
		t.Fatal("generic snapshot serialized")
	}
}

// TestSnapshotSafeUnderConcurrentWrites is the -race proof of the headline
// contract: snapshots taken from every container stay queryable, and keep
// answering identically, while the source ingests from multiple goroutines.
func TestSnapshotSafeUnderConcurrentWrites(t *testing.T) {
	run := func(t *testing.T, snap *SnapshotFloat64, write func(stop <-chan struct{})) {
		t.Helper()
		want := snap.Rank(500)
		wantQ, err := snap.Quantile(0.9)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); write(stop) }()
		var rwg sync.WaitGroup
		for g := 0; g < 4; g++ {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				dst := make([]uint64, 0, 3)
				for i := 0; i < 5000; i++ {
					if snap.Rank(500) != want {
						panic("snapshot rank moved under concurrent writes")
					}
					if q, err := snap.Quantile(0.9); err != nil || q != wantQ {
						panic("snapshot quantile moved under concurrent writes")
					}
					dst = snap.RankBatch(dst, []float64{1, 500, 1e9})
					for range snap.All() {
						break
					}
				}
			}()
		}
		rwg.Wait()
		close(stop)
		wg.Wait()
	}

	t.Run("sketch", func(t *testing.T) {
		s := mustFloat64(t, WithEpsilon(0.05), WithSeed(21))
		for i := 0; i < 20000; i++ {
			s.Update(float64(i % 1000))
		}
		snap := s.Snapshot()
		// Plain sketches are single-writer: one goroutine keeps writing.
		run(t, snap, func(stop <-chan struct{}) {
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					s.Update(float64(i))
				}
			}
		})
	})
	t.Run("oneShard", func(t *testing.T) {
		c, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(22), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			c.Update(float64(i % 1000))
		}
		snap := c.Snapshot()
		run(t, snap, func(stop <-chan struct{}) {
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Update(float64(i))
				}
			}
		})
	})
	t.Run("sharded", func(t *testing.T) {
		s, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(23), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			s.Update(float64(i % 1000))
		}
		snap := s.Snapshot()
		var wwg sync.WaitGroup
		run(t, snap, func(stop <-chan struct{}) {
			// Multiple writers plus live queries forcing epoch rebuilds.
			for w := 0; w < 3; w++ {
				wwg.Add(1)
				go func() {
					defer wwg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							s.Update(float64(i))
							if i%64 == 0 {
								_, _ = s.Quantile(0.5)
							}
						}
					}
				}()
			}
			<-stop
			wwg.Wait()
		})
	})
}

// TestAllIteratorCoreset pins All's coreset (one entry per retained item,
// weights summing to the count), early-break behaviour, and agreement with
// the snapshot's iterator.
func TestAllIteratorCoreset(t *testing.T) {
	s := mustFloat64(t, WithEpsilon(0.05), WithSeed(31))
	for i := 0; i < 50000; i++ {
		s.Update(float64((i * 613) % 50021))
	}
	coreset := coresetOf(s)
	if len(coreset) != s.ItemsRetained() {
		t.Fatalf("All yielded %d pairs, ItemsRetained %d", len(coreset), s.ItemsRetained())
	}
	var total uint64
	for _, wi := range coreset {
		total += wi.Weight
	}
	if total != s.Count() {
		t.Fatalf("All weights sum to %d, want %d", total, s.Count())
	}
	// Early break stops the iteration cleanly.
	seen := 0
	for range s.All() {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("early break yielded %d", seen)
	}

	// The snapshot's iterator agrees with the live sketch's.
	snap := s.Snapshot()
	j := 0
	for item, w := range snap.All() {
		if coreset[j].Item != item || coreset[j].Weight != w {
			t.Fatalf("snapshot All diverges at %d", j)
		}
		j++
	}
	if j != len(coreset) {
		t.Fatal("snapshot All truncated")
	}
}

// TestAllocsAll: once its scratch has grown, a sketch's All allocates
// nothing, though every iteration merges the levels again.
func TestAllocsAll(t *testing.T) {
	s, err := NewFloat64(WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		s.Update(float64((i * 613) % 50021))
	}
	var n uint64
	walk := func() {
		n = 0
		for _, w := range s.All() {
			n += w
		}
	}
	walk() // grow the scratch
	if avg := testing.AllocsPerRun(100, walk); avg != 0 {
		t.Fatalf("All allocates %v allocs/op", avg)
	}
	if n != s.Count() {
		t.Fatalf("All weighs %d of %d", n, s.Count())
	}
}

// TestAllOnWrappers exercises the iterator on the concurrent containers.
func TestAllOnWrappers(t *testing.T) {
	c, err := NewShardedFloat64(WithEpsilon(0.1), WithSeed(32), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedFloat64(WithEpsilon(0.1), WithSeed(33), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		c.Update(float64(i))
		sh.Update(float64(i))
	}
	for name, r := range map[string]Reader[float64]{"oneShard": c, "sharded": sh} {
		var total uint64
		prev := math.Inf(-1)
		for item, w := range r.All() {
			if item < prev {
				t.Fatalf("%s: All not ascending", name)
			}
			prev = item
			total += w
		}
		if total != r.Count() {
			t.Fatalf("%s: All weights sum %d != count %d", name, total, r.Count())
		}
	}
}

// TestShardedSnapshotSharesEpoch pins the no-per-call-clone contract and
// that the published reader is the same object queries are answered from.
func TestShardedSnapshotSharesEpoch(t *testing.T) {
	s, err := NewShardedFloat64(WithEpsilon(0.1), WithSeed(41), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		s.Update(float64(i))
	}
	a := s.Snapshot()
	b := s.Snapshot()
	if a != b {
		t.Fatal("Snapshot allocated a new epoch without writes")
	}
	if got, want := s.Rank(5000), a.Rank(5000); got != want {
		t.Fatalf("live query %d disagrees with published snapshot %d", got, want)
	}
}

// TestShardedReaderGaps pins the edge answers of Reader methods the other
// Sharded tests only touch in passing: Empty before and after ingest,
// RankExclusive of the minimum, NormalizedRank of the maximum, and the
// CDF/PMF totals.
func TestShardedReaderGaps(t *testing.T) {
	c, err := NewShardedFloat64(WithEpsilon(0.05), WithSeed(51), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Empty() {
		t.Fatal("new sketch not empty")
	}
	for i := 1; i <= 1000; i++ {
		c.Update(float64(i))
	}
	if c.Empty() {
		t.Fatal("sketch empty after updates")
	}
	if got := c.RankExclusive(1); got != 0 {
		t.Fatalf("RankExclusive(min) = %d", got)
	}
	if nr := c.NormalizedRank(1000); nr != 1 {
		t.Fatalf("NormalizedRank(max) = %v", nr)
	}
	cdf, err := c.CDF([]float64{250, 500, 750})
	if err != nil || len(cdf) != 4 || cdf[3] != 1 {
		t.Fatalf("CDF: %v %v", cdf, err)
	}
	pmf, err := c.PMF([]float64{250, 500, 750})
	if err != nil || len(pmf) != 4 {
		t.Fatalf("PMF: %v %v", pmf, err)
	}
	var sum float64
	for _, p := range pmf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", sum)
	}
}
