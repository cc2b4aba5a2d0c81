package req

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestShardedEpochWorkConcurrent: epoch rebuilds, which merge on the one
// Work a Sharded keeps for them, run beside writers on every shard. Each
// published epoch owns its coreset, so a snapshot held across later
// epochs keeps answering from the same arrays, and once the writers stop
// the epoch counts every item.
func TestShardedEpochWorkConcurrent(t *testing.T) {
	s, err := NewShardedFloat64(WithShards(4), WithK(8), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, epochs = 2, 2, 50
	stop := make(chan struct{})
	written := make([]uint64, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]float64, 32)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = float64(g*1_000_000_000 + i*len(batch) + j)
				}
				s.UpdateBatch(batch)
				s.Update(float64(g*1_000_000_000 + i))
				written[g] += uint64(len(batch)) + 1
			}
		}(g)
	}
	items := func(sn *Snapshot[float64]) []float64 {
		var xs []float64
		for x := range sn.All() {
			xs = append(xs, x)
		}
		return xs
	}
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			var held *Snapshot[float64]
			var kept []float64
			for e := 0; e < epochs; e++ {
				sn := s.Snapshot()
				if _, err := sn.Quantile(0.5); err != nil && err != ErrEmpty {
					t.Errorf("epoch quantile: %v", err)
					return
				}
				if _, err := s.MarshalBinary(); err != nil {
					t.Errorf("epoch encode: %v", err)
					return
				}
				if held != nil && !slices.Equal(kept, items(held)) {
					t.Error("a held epoch's coreset changed under a later epoch")
					return
				}
				held, kept = sn, items(sn)
			}
		}()
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	var want uint64
	for _, n := range written {
		want += n
	}
	if got := s.Snapshot().Count(); got != want {
		t.Fatalf("epoch after the writers counts %d, want %d", got, want)
	}
}

// TestRegistryExportWorkConcurrent: on every shard, UpdatePairs, the Visit
// facade's reads and exports take turns on the one Work the shard lends
// its keys. Each facade Snapshot counts what its key holds, every export
// decodes, and the export after the writers stop equals a full encode.
func TestRegistryExportWorkConcurrent(t *testing.T) {
	reg, err := NewRegistryFloat64(WithShards(2), WithK(8), WithHighRankAccuracy(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds, batch = 2, 200, 64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]string, batch)
			vals := make([]float64, batch)
			for i := 0; i < rounds; i++ {
				for j := range keys {
					keys[j] = fmt.Sprintf("k-%02d", (i*7+j*g+j)%48)
					vals[j] = float64(1 + (i*batch+j)%997)
				}
				reg.UpdatePairs(keys, vals)
			}
		}(g)
	}
	stop := make(chan struct{})
	var others sync.WaitGroup
	others.Add(2)
	go func() {
		defer others.Done()
		var ranks []uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Visit(func(key string, s *Sketch[float64]) bool {
				sn := s.Snapshot()
				if sn.Count() != s.Count() {
					t.Errorf("%s: facade Snapshot counts %d of %d", key, sn.Count(), s.Count())
					return false
				}
				var n uint64
				for _, w := range s.All() {
					n += w
				}
				ranks = s.RankBatch(ranks, []float64{100, 500, 900})
				if n != s.Count() || ranks[2] > n {
					t.Errorf("%s: facade All weighs %d, RankBatch %v, of %d", key, n, ranks, s.Count())
					return false
				}
				return true
			})
		}
	}()
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			blob, err := reg.MarshalBinary()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := UnmarshalRegistryFloat64(blob); err != nil {
				t.Errorf("export not decodable: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	others.Wait()
	blob, err := reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := exportReference(t, reg, putStringKey, keyString, float64Codec.tag); !bytes.Equal(blob, want) {
		t.Fatal("the export after the writers differs from a full encode")
	}
}
