package req

// Golden cross-version serde fixtures.
//
// The .bin files under testdata/serde were produced by the encoder AS IT
// EXISTED BEFORE the contiguous level-store refactor (PR 5) and are
// committed to the repository. The tests decode them with the current
// decoder, require bit-identical query answers (recorded in
// golden_queries.json at fixture-generation time), and re-encode them
// requiring byte-identical output — proving that storage-engine refactors
// change neither the wire format nor the semantics of restored state.
//
// Regenerate (only when the format version is intentionally bumped) with:
//
//	go test -run TestGoldenSerdeFixtures -update-serde-golden .

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"req/internal/rng"
)

var updateSerdeGolden = flag.Bool("update-serde-golden", false,
	"rewrite testdata/serde fixtures from the current encoder")

const serdeGoldenDir = "testdata/serde"

// goldenPhis is the quantile probe grid recorded for every fixture.
var goldenPhis = []float64{0, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// goldenQueries is the recorded query surface of one fixture. Float64
// values are stored as IEEE-754 bit patterns in hex so the comparison is
// exact, never within-epsilon.
type goldenQueries struct {
	Count     uint64   `json:"count"`
	Retained  int      `json:"retained"`
	Quantiles []string `json:"quantiles"` // hex bits (float64) or decimal (uint64)
	Ranks     []uint64 `json:"ranks"`     // at rankProbes drawn from the value domain
}

// fixtureKind distinguishes the decoder used for a fixture.
type fixtureKind int

const (
	kindFullFloat64 fixtureKind = iota
	kindFullUint64
	kindSnapFloat64
	kindSnapUint64
)

type serdeFixture struct {
	name string
	kind fixtureKind
	// build constructs the sketch state and returns the encoded record.
	build func(t testing.TB) []byte
}

// goldenStreamF64 builds the reference float64 sketch: a shuffled stream
// long enough to grow the bound and cascade several levels, then a merge
// with a second sketch so merge-combined schedule states are on the wire.
func goldenStreamF64(t testing.TB, hra bool) *Float64 {
	opts := []Option{WithEpsilon(0.02), WithDelta(0.01), WithSeed(42)}
	if hra {
		opts = append(opts, WithHighRankAccuracy())
	}
	s, err := NewFloat64(opts...)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(777)
	for _, v := range r.Perm(60000) {
		s.Update(float64(v))
	}
	otherOpts := []Option{WithEpsilon(0.02), WithDelta(0.01), WithSeed(43)}
	if hra {
		otherOpts = append(otherOpts, WithHighRankAccuracy())
	}
	o, err := NewFloat64(otherOpts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Perm(7000) {
		o.Update(float64(v) + 0.5)
	}
	if err := s.Merge(o); err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenTailF64 builds an HRA float64 sketch whose record carries
// unsorted tails: a shuffled stream, then single arrivals above its max
// and below its min, a short ascending batch above the max, and two
// weighted inserts whose even weights land only on levels ≥ 1. Nothing
// reads the sketch before it is encoded, so no level is settled.
func goldenTailF64(t testing.TB) *Float64 {
	s, err := NewFloat64(WithEpsilon(0.02), WithDelta(0.01), WithSeed(44), WithHighRankAccuracy())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(888)
	for _, v := range r.Perm(20000) {
		s.Update(float64(v))
	}
	for i := 0; i < 5; i++ {
		s.Update(20000.5 + float64(i))
		s.Update(-1 - float64(i))
	}
	s.UpdateBatch([]float64{30000, 30001, 30002, 30003, 30004, 30005})
	for _, w := range []struct {
		v float64
		n uint64
	}{{12345.25, 6}, {777.75, 10}} {
		if err := s.UpdateWeighted(w.v, w.n); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func goldenStreamU64(t testing.TB) *Uint64 {
	s, err := NewUint64(WithK(32), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(555)
	for i := 0; i < 30000; i++ {
		s.Update(r.Uint64() >> 20)
	}
	return s
}

var serdeFixtures = []serdeFixture{
	{name: "full_f64", kind: kindFullFloat64, build: func(t testing.TB) []byte {
		b, err := goldenStreamF64(t, false).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
	{name: "full_f64_hra", kind: kindFullFloat64, build: func(t testing.TB) []byte {
		b, err := goldenStreamF64(t, true).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
	{name: "full_f64_hra_tail", kind: kindFullFloat64, build: func(t testing.TB) []byte {
		b, err := goldenTailF64(t).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
	{name: "full_u64", kind: kindFullUint64, build: func(t testing.TB) []byte {
		b, err := goldenStreamU64(t).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
	{name: "snap_f64", kind: kindSnapFloat64, build: func(t testing.TB) []byte {
		b, err := goldenStreamF64(t, false).Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
	{name: "snap_u64", kind: kindSnapUint64, build: func(t testing.TB) []byte {
		b, err := goldenStreamU64(t).Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
}

// rankProbesF64 / rankProbesU64 are fixed probe grids inside each fixture's
// value domain.
var rankProbesF64 = []float64{-1, 0, 59, 599, 5999, 29999, 44999, 59999, 70000}
var rankProbesU64 = []uint64{0, 1 << 20, 1 << 30, 1 << 40, 1 << 43, 1 << 44}

// fixtureQueries computes the recorded query surface from a decoded fixture.
func fixtureQueries(t testing.TB, kind fixtureKind, data []byte) goldenQueries {
	var q goldenQueries
	switch kind {
	case kindFullFloat64, kindSnapFloat64:
		var r interface {
			Count() uint64
			ItemsRetained() int
			Quantile(float64) (float64, error)
			Rank(float64) uint64
		}
		if kind == kindFullFloat64 {
			s, err := DecodeFloat64(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			r = s
		} else {
			s, err := UnmarshalSnapshotFloat64(data)
			if err != nil {
				t.Fatalf("decode snapshot: %v", err)
			}
			r = s
		}
		q.Count = r.Count()
		q.Retained = r.ItemsRetained()
		for _, phi := range goldenPhis {
			v, err := r.Quantile(phi)
			if err != nil {
				t.Fatalf("quantile(%v): %v", phi, err)
			}
			q.Quantiles = append(q.Quantiles, fmt.Sprintf("%016x", math.Float64bits(v)))
		}
		for _, y := range rankProbesF64 {
			q.Ranks = append(q.Ranks, r.Rank(y))
		}
	case kindFullUint64, kindSnapUint64:
		var r interface {
			Count() uint64
			ItemsRetained() int
			Quantile(float64) (uint64, error)
			Rank(uint64) uint64
		}
		if kind == kindFullUint64 {
			s, err := DecodeUint64(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			r = s
		} else {
			s, err := UnmarshalSnapshotUint64(data)
			if err != nil {
				t.Fatalf("decode snapshot: %v", err)
			}
			r = s
		}
		q.Count = r.Count()
		q.Retained = r.ItemsRetained()
		for _, phi := range goldenPhis {
			v, err := r.Quantile(phi)
			if err != nil {
				t.Fatalf("quantile(%v): %v", phi, err)
			}
			q.Quantiles = append(q.Quantiles, fmt.Sprintf("%d", v))
		}
		for _, y := range rankProbesU64 {
			q.Ranks = append(q.Ranks, r.Rank(y))
		}
	}
	return q
}

// reencode round-trips a fixture through decode + MarshalBinary.
func reencode(t testing.TB, kind fixtureKind, data []byte) []byte {
	var out []byte
	var err error
	switch kind {
	case kindFullFloat64:
		var s *Float64
		if s, err = DecodeFloat64(data); err == nil {
			out, err = s.MarshalBinary()
		}
	case kindFullUint64:
		var s *Uint64
		if s, err = DecodeUint64(data); err == nil {
			out, err = s.MarshalBinary()
		}
	case kindSnapFloat64:
		var s *SnapshotFloat64
		if s, err = UnmarshalSnapshotFloat64(data); err == nil {
			out, err = s.MarshalBinary()
		}
	case kindSnapUint64:
		var s *SnapshotUint64
		if s, err = UnmarshalSnapshotUint64(data); err == nil {
			out, err = s.MarshalBinary()
		}
	}
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	return out
}

func TestGoldenSerdeFixtures(t *testing.T) {
	if *updateSerdeGolden {
		if err := os.MkdirAll(serdeGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		all := map[string]goldenQueries{}
		for _, fx := range serdeFixtures {
			data := fx.build(t)
			if err := os.WriteFile(filepath.Join(serdeGoldenDir, fx.name+".bin"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			all[fx.name] = fixtureQueries(t, fx.kind, data)
		}
		blob, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(serdeGoldenDir, "golden_queries.json"), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("fixtures regenerated")
		return
	}

	blob, err := os.ReadFile(filepath.Join(serdeGoldenDir, "golden_queries.json"))
	if err != nil {
		t.Fatalf("read golden queries (run -update-serde-golden once): %v", err)
	}
	var want map[string]goldenQueries
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, fx := range serdeFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(serdeGoldenDir, fx.name+".bin"))
			if err != nil {
				t.Fatalf("read fixture: %v", err)
			}
			w, ok := want[fx.name]
			if !ok {
				t.Fatalf("no golden queries recorded for %q", fx.name)
			}
			got := fixtureQueries(t, fx.kind, data)
			if got.Count != w.Count {
				t.Errorf("count = %d, want %d", got.Count, w.Count)
			}
			if got.Retained != w.Retained {
				t.Errorf("retained = %d, want %d", got.Retained, w.Retained)
			}
			for i := range w.Quantiles {
				if i < len(got.Quantiles) && got.Quantiles[i] != w.Quantiles[i] {
					t.Errorf("quantile[%d] (phi=%v) = %s, want %s", i, goldenPhis[i], got.Quantiles[i], w.Quantiles[i])
				}
			}
			for i := range w.Ranks {
				if i < len(got.Ranks) && got.Ranks[i] != w.Ranks[i] {
					t.Errorf("rank[%d] = %d, want %d", i, got.Ranks[i], w.Ranks[i])
				}
			}
			re := reencode(t, fx.kind, data)
			if string(re) != string(data) {
				t.Errorf("re-encode is not byte-identical: %d vs %d bytes", len(re), len(data))
			}
			// The current encoder applied to the same logical stream must
			// still produce the pre-refactor bytes: build the fixture fresh
			// and compare against the committed file.
			fresh := fx.build(t)
			if string(fresh) != string(data) {
				t.Errorf("freshly built fixture differs from committed bytes: %d vs %d bytes", len(fresh), len(data))
			}
		})
	}
}
