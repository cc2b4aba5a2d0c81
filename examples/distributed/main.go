// Distributed aggregation: full mergeability in action (Theorem 3).
//
// Two deployments of the same idea, both resting on the paper's Appendix D
// mergeability guarantee:
//
//  1. Cross-machine: sixteen simulated workers each sketch their own shard
//     of a dataset; the shards are serialized (as they would be for a
//     network hop), then merged pairwise in a reduction tree.
//  2. In-process: the same dataset is ingested by concurrent goroutines
//     through req.ShardedFloat64, which stripes writers across per-shard
//     sketches and merges lazily at query time — the same merge machinery,
//     applied inside one process instead of across machines.
//  3. Durability: the aggregate is persisted with crash-safe generation
//     rotation, then reopened zero-copy as a fresh process would after a
//     restart — same answers, no re-ingestion, no per-item decode.
//
// Both aggregates answer queries for the full dataset within the same ε
// guarantee as a single-machine, single-goroutine sketch.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"req"
	"req/internal/rng"
	"req/internal/streams"
)

const (
	workers   = 16
	perWorker = 250_000
	eps       = 0.01
)

func main() {
	// Generate the dataset and deal it across workers round-robin.
	total := workers * perWorker
	data := streams.LogNormal{Mu: 3, Sigma: 1.2}.Generate(total, rng.New(99))

	fmt.Printf("dataset: %d values across %d workers\n", total, workers)

	crossMachine(data)
	aggregate := inProcess(data)
	durability(aggregate)
}

// crossMachine simulates the serialize → ship → merge-tree pipeline.
func crossMachine(data []float64) {
	total := len(data)

	fmt.Println("\n=== cross-machine: serialized shards, merge tree ===")

	// Each worker sketches its shard independently (different seeds) and
	// ships the serialized sketch.
	blobs := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		sk, err := req.NewFloat64(req.WithEpsilon(eps), req.WithSeed(uint64(w+1)))
		if err != nil {
			panic(err)
		}
		for i := w; i < total; i += workers {
			sk.Update(data[i])
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			panic(err)
		}
		blobs[w] = blob
	}
	wire := 0
	for _, b := range blobs {
		wire += len(b)
	}
	fmt.Printf("shipped %d sketches, %d bytes total (%.5f%% of raw data)\n\n",
		workers, wire, 100*float64(wire)/float64(8*total))

	// Reduction tree: deserialize and merge pairwise until one remains.
	level := make([]*req.Float64, workers)
	for i, blob := range blobs {
		sk, err := req.DecodeFloat64(blob)
		if err != nil {
			panic(err)
		}
		level[i] = sk
	}
	round := 0
	for len(level) > 1 {
		round++
		var next []*req.Float64
		for i := 0; i+1 < len(level); i += 2 {
			if err := level[i].Merge(level[i+1]); err != nil {
				panic(err)
			}
			next = append(next, level[i])
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		fmt.Printf("merge round %d: %d sketches remain\n", round, len(next))
		level = next
	}
	global := level[0]

	fmt.Printf("\nglobal sketch: n=%d, retained=%d items\n", global.Count(), global.ItemsRetained())
	report(data, global.Quantile)
}

// inProcess ingests the same dataset with concurrent goroutines through the
// sharded wrapper and queries it while ingestion is still running.
func inProcess(data []float64) *req.ShardedFloat64 {
	fmt.Printf("\n=== in-process: %d goroutines into a sharded sketch ===\n", workers)

	s, err := req.NewShardedFloat64(req.WithEpsilon(eps), req.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("shards: %d (GOMAXPROCS=%d)\n", s.NumShards(), runtime.GOMAXPROCS(0))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(data); i += workers {
				s.Update(data[i])
			}
		}(w)
	}
	// A monitoring goroutine scrapes mid-ingest: each answer is a
	// consistent point-in-time snapshot of whatever has landed so far.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		case <-ticker.C:
			if n := s.Count(); n > 0 {
				p99, err := s.Quantile(0.99)
				if err == nil {
					fmt.Printf("mid-ingest scrape: n=%-9d p99≈%.3f\n", n, p99)
				}
			}
		}
	}

	fmt.Printf("\nsharded sketch: n=%d, merged snapshot retains %d items\n",
		s.Count(), s.ItemsRetained())
	report(data, s.Quantile)

	// Two ways to ship the merged state. Full sketch state joins the
	// cross-machine merge pipeline above like any other worker's shard;
	// the immutable query snapshot is the record a read replica needs to
	// answer queries (and nothing else) — slightly larger on the wire
	// (per-item weights ride along), but it decodes straight into an
	// immutable reader with no mutable state attached.
	blob, err := s.MarshalBinary()
	if err != nil {
		panic(err)
	}
	snap := s.Snapshot() // shared epoch snapshot: no clone between writes
	snapBlob, err := snap.MarshalBinary()
	if err != nil {
		panic(err)
	}
	fmt.Printf("serialized merged state: %d bytes full sketch, %d bytes query-only snapshot\n",
		len(blob), len(snapBlob))
	replica, err := req.UnmarshalSnapshotFloat64(snapBlob)
	if err != nil {
		panic(err)
	}
	if p99a, _ := snap.Quantile(0.99); p99a != mustQ(replica.Quantile(0.99)) {
		panic("replica snapshot answers differently")
	}
	fmt.Printf("read replica restored from snapshot: n=%d, p99 matches\n", replica.Count())
	return s
}

// durability persists the aggregate with generation rotation and reopens
// it the way a restarted process would: zero-copy from the newest durable
// generation.
func durability(s *req.ShardedFloat64) {
	fmt.Println("\n=== durability: crash-safe save, zero-copy restart ===")

	dir, err := os.MkdirTemp("", "req-snaps-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Each save writes a NEW generation atomically (write-temp → fsync →
	// rename → fsync(dir)): a crash mid-save leaves the previous generation
	// intact, and old generations are pruned only after the new one is
	// durable. Saving twice demonstrates the rotation.
	gen1, err := s.SaveSnapshot(dir)
	if err != nil {
		panic(err)
	}
	gen2, err := s.SaveSnapshot(dir)
	if err != nil {
		panic(err)
	}
	fmt.Printf("saved generations %d and %d under %s\n", gen1, gen2, dir)

	// "Restart": a fresh process knows only the directory. Opening recovers
	// the newest valid generation and serves queries straight from the
	// mmap'd file — O(1) open, no per-item decode, no heap copy of the
	// coreset.
	live := s.Snapshot()
	m, err := req.OpenSnapshotFloat64(dir)
	if err != nil {
		panic(err)
	}
	defer m.Close()
	how := "portable read"
	if m.Mapped() {
		how = "mmap, zero-copy"
	}
	fmt.Printf("reopened generation %d (%s): n=%d, retained=%d items\n",
		m.Generation(), how, m.Count(), m.ItemsRetained())

	for _, phi := range []float64{0.5, 0.99, 0.999} {
		a, _ := live.Quantile(phi)
		b, _ := m.Quantile(phi)
		if a != b {
			panic("restarted snapshot answers differently")
		}
	}
	fmt.Println("restarted snapshot answers match the live aggregate exactly")
}

// mustQ unwraps a quantile result in the replica cross-check.
func mustQ(v float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return v
}

// report checks estimated quantiles against the exact distribution.
func report(data []float64, quantile func(float64) (float64, error)) {
	total := len(data)
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	fmt.Println("\nquantile   estimate          exact       rank error")
	for _, phi := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		est, err := quantile(phi)
		if err != nil {
			panic(err)
		}
		exact := sorted[int(math.Ceil(phi*float64(total)))-1]
		trueRank := float64(sort.SearchFloat64s(sorted, math.Nextafter(est, math.Inf(1))))
		rel := math.Abs(trueRank-phi*float64(total)) / (phi * float64(total))
		fmt.Printf("  p%-7.2f %-17.3f %-11.3f %.5f\n", phi*100, est, exact, rel)
	}
	fmt.Printf("\nevery rank error above should sit within ε = %v\n", eps)
}
