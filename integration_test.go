package req

// Integration tests: full pipelines across modules — generators feeding the
// public API, verified against the exact oracle, through serialization and
// merge boundaries. These complement the per-package unit tests by checking
// the composed behaviour a downstream user sees.

import (
	"math"
	"testing"

	"req/internal/exact"
	"req/internal/rng"
	"req/internal/streams"
)

// checkGuarantee verifies relative error ≤ tol at log-spaced ranks against
// an exact oracle built from the same values.
func checkGuarantee(t *testing.T, name string, s *Float64, vals []float64, tol float64) {
	t.Helper()
	oracle := exact.FromValues(vals)
	n := oracle.N()
	for rank := uint64(1); rank <= n; rank = rank*3 + 1 {
		y := oracle.ItemOfRank(rank)
		truth := float64(oracle.Rank(y))
		est := float64(s.Rank(y))
		rel := math.Abs(est-truth) / truth
		if rel > tol {
			t.Errorf("%s: rank %d (y=%v): est %v truth %v rel %.4f > %v",
				name, rank, y, est, truth, rel, tol)
		}
	}
}

func TestIntegrationAllGeneratorsMeetGuarantee(t *testing.T) {
	const n = 1 << 15
	const eps = 0.05
	for _, g := range streams.All() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			vals := g.Generate(n, rng.New(11))
			s := mustFloat64(t, WithEpsilon(eps), WithDelta(0.01), WithSeed(12))
			s.UpdateBatch(vals)
			checkGuarantee(t, g.Name(), s, vals, eps)
		})
	}
}

func TestIntegrationSerializeMidStream(t *testing.T) {
	// Sketch half a stream, serialize/deserialize (as a checkpoint), feed
	// the rest, verify the guarantee over the whole stream.
	const n = 1 << 16
	vals := streams.Latency{}.Generate(n, rng.New(13))
	s := mustFloat64(t, WithEpsilon(0.05), WithSeed(14))
	s.UpdateBatch(vals[:n/2])
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeFloat64(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored.UpdateBatch(vals[n/2:])
	checkGuarantee(t, "checkpointed", restored, vals, 0.05)
}

func TestIntegrationMergeHeterogeneousShards(t *testing.T) {
	// Shards of wildly different sizes and distributions, merged into one.
	cfg := []Option{WithEpsilon(0.05), WithDelta(0.01)}
	shardSpecs := []struct {
		gen  streams.Generator
		n    int
		seed uint64
	}{
		{streams.Uniform{Lo: 0, Hi: 100}, 50000, 20},
		{streams.Uniform{Lo: 100, Hi: 200}, 500, 21},
		{streams.LogNormal{Mu: 3, Sigma: 1}, 20000, 22},
		{streams.Uniform{Lo: 50, Hi: 150}, 3, 23},
	}
	var all []float64
	global := mustFloat64(t, append(cfg, WithSeed(30))...)
	for i, spec := range shardSpecs {
		vals := spec.gen.Generate(spec.n, rng.New(spec.seed))
		all = append(all, vals...)
		shard := mustFloat64(t, append(cfg, WithSeed(uint64(31+i)))...)
		shard.UpdateBatch(vals)
		if err := global.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	if global.Count() != uint64(len(all)) {
		t.Fatalf("merged count %d != %d", global.Count(), len(all))
	}
	checkGuarantee(t, "heterogeneous merge", global, all, 0.05)
}

func TestIntegrationHRAOnTails(t *testing.T) {
	const n = 1 << 16
	vals := streams.Latency{}.Generate(n, rng.New(40))
	s := mustFloat64(t, WithEpsilon(0.01), WithHighRankAccuracy(), WithSeed(41))
	s.UpdateBatch(vals)
	oracle := exact.FromValues(vals)
	for _, phi := range []float64{0.99, 0.999, 0.9999} {
		rank := uint64(phi * n)
		y := oracle.ItemOfRank(rank)
		truth := float64(oracle.Rank(y))
		est := float64(s.Rank(y))
		tailMass := float64(n) - truth + 1
		if math.Abs(est-truth)/tailMass > 0.01 {
			t.Errorf("p%v: tail-relative error %.5f", phi*100, math.Abs(est-truth)/tailMass)
		}
	}
}

func TestIntegrationQuantilesMatchOracleOnCDF(t *testing.T) {
	const n = 1 << 15
	vals := streams.Normal{Mu: 50, Sigma: 10}.Generate(n, rng.New(50))
	s := mustFloat64(t, WithEpsilon(0.02), WithSeed(51))
	s.UpdateBatch(vals)
	oracle := exact.FromValues(vals)
	splits := []float64{30, 40, 50, 60, 70}
	cdf, err := s.CDF(splits)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range splits {
		truth := float64(oracle.Rank(sp)) / float64(n)
		if math.Abs(cdf[i]-truth) > 0.02*truth+0.002 {
			t.Errorf("CDF(%v) = %v, truth %v", sp, cdf[i], truth)
		}
	}
}

func TestIntegrationLowerBoundDecodeViaPublicAPI(t *testing.T) {
	// The Appendix A decode experiment through the public API end to end.
	r := rng.New(60)
	lb, err := streams.NewLowerBound(0.05, 7, 1<<15, r)
	if err != nil {
		t.Fatal(err)
	}
	vals := lb.Values()
	streams.Arrange(vals, streams.OrderShuffled, r)
	s := mustFloat64(t, WithEpsilon(0.05/3), WithDelta(1e-9), WithSeed(61))
	s.UpdateBatch(vals)
	decoded := lb.Decode(s.Rank)
	for i := range decoded {
		if decoded[i] != lb.S[i] {
			t.Fatalf("decode mismatch at %d: %d vs %d", i, decoded[i], lb.S[i])
		}
	}
}

func TestIntegrationWeightedEquivalentDistribution(t *testing.T) {
	// A weighted sketch of a histogram must answer like a unit sketch of
	// the expanded stream.
	hist := map[float64]uint64{}
	r := rng.New(70)
	var expanded []float64
	for i := 0; i < 500; i++ {
		v := math.Floor(r.Float64() * 1000)
		w := uint64(1 + r.Intn(30))
		hist[v] += w
		for j := uint64(0); j < w; j++ {
			expanded = append(expanded, v)
		}
	}
	weighted := mustFloat64(t, WithEpsilon(0.05), WithSeed(71))
	for v, w := range hist {
		if err := weighted.UpdateWeighted(v, w); err != nil {
			t.Fatal(err)
		}
	}
	checkGuarantee(t, "weighted-histogram", weighted, expanded, 0.05)
}

func TestIntegrationLongRunningMixedWorkload(t *testing.T) {
	// Interleave updates, merges, serialization and queries as a long-lived
	// service would, checking consistency at every phase boundary.
	if testing.Short() {
		t.Skip("long mixed workload")
	}
	s := mustFloat64(t, WithEpsilon(0.05), WithSeed(80))
	r := rng.New(81)
	var mirror []float64

	phase := func(k int) {
		vals := streams.Uniform{Lo: 0, Hi: 1000}.Generate(20000, r)
		s.UpdateBatch(vals)
		mirror = append(mirror, vals...)
	}
	phase(0)
	// Merge in a shard.
	shard := mustFloat64(t, WithEpsilon(0.05), WithSeed(82))
	shardVals := streams.Uniform{Lo: 500, Hi: 1500}.Generate(30000, r)
	shard.UpdateBatch(shardVals)
	if err := s.Merge(shard); err != nil {
		t.Fatal(err)
	}
	mirror = append(mirror, shardVals...)
	// Checkpoint.
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeFloat64(blob)
	if err != nil {
		t.Fatal(err)
	}
	s = s2
	phase(1)
	phase(2)
	checkGuarantee(t, "mixed workload", s, mirror, 0.05)
}
