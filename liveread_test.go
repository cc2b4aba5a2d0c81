package req

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// TestLiveReadsKeepTwinState: a live read settles the levels in place but
// must not change what the sketch summarises. Two sketches with the same
// seed get the same stream; one is read every 64 items, the other never.
// They must keep equal counts and retained sizes, and end with the same
// coreset: byte-identical snapshots on distinct values, and the same runs
// of equal items on a ±0 stream (where settling early may reorder +0 and
// −0 inside a level, so a compaction may keep the other sign).
func TestLiveReadsKeepTwinState(t *testing.T) {
	negZero := math.Copysign(0, -1)
	streams := []struct {
		name     string
		distinct bool
		draw     func(i int) float64
	}{
		{"distinct", true, func(i int) float64 { return float64(i * 7919 % 1000003) }},
		{"signed-zero", false, func(i int) float64 {
			switch x := uint64(i) * 0x9e3779b97f4a7c15 >> 40; x % 4 {
			case 0:
				return 0
			case 1:
				return negZero
			default:
				return float64(x%512) - 256
			}
		}},
	}
	phis := []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999}
	for _, st := range streams {
		for _, hra := range []bool{false, true} {
			name := st.name + "/lra"
			opts := []Option{WithSeed(21)}
			if hra {
				name = st.name + "/hra"
				opts = append(opts, WithHighRankAccuracy())
			}
			t.Run(name, func(t *testing.T) {
				read := mustFloat64(t, opts...)
				quiet := mustFloat64(t, opts...)
				var dst []float64
				var err error
				for i := 0; i < 400000; i++ {
					x := st.draw(i)
					read.Update(x)
					quiet.Update(x)
					if i%64 != 63 {
						continue
					}
					if dst, err = read.QuantilesInto(dst, phis); err != nil {
						t.Fatal(err)
					}
					if read.Count() != quiet.Count() || read.ItemsRetained() != quiet.ItemsRetained() {
						t.Fatalf("after %d items: read twin holds %d/%d, quiet twin %d/%d", i+1,
							read.Count(), read.ItemsRetained(), quiet.Count(), quiet.ItemsRetained())
					}
				}
				a, b := read.Snapshot(), quiet.Snapshot()
				if !st.distinct {
					if !slices.Equal(coresetRuns(a), coresetRuns(b)) {
						t.Fatal("the twins' coresets differ beyond the order of equal items")
					}
					return
				}
				ab, err := a.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				bb, err := b.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ab, bb) {
					t.Fatal("reading one twin changed its snapshot bytes")
				}
			})
		}
	}
}

// singleReader is the single-read surface of one summary: a sketch, or a
// key of a registry.
type singleReader struct {
	quantile      func(phi float64) (float64, error)
	quantilesInto func(dst, phis []float64) ([]float64, error)
	rank          func(y float64) (uint64, error)
}

// bits returns the bits of every single read's answers: Quantile per φ,
// one QuantilesInto over phis, and Rank at every probe.
func (r singleReader) bits(t *testing.T, phis, probes []float64) []uint64 {
	t.Helper()
	var out []uint64
	for _, phi := range phis {
		q, err := r.quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, math.Float64bits(q))
	}
	qs, err := r.quantilesInto(nil, phis)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		out = append(out, math.Float64bits(q))
	}
	for _, y := range probes {
		rk, err := r.rank(y)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rk)
	}
	return out
}

// TestSingleReadsIgnoreCachedView: Quantile, QuantilesInto and Rank read
// the levels whether or not the sorted view is cached, so building the
// view must not change one bit of their answers — not even the sign of a
// zero, where the view and the selection over the levels may hold
// different ones. On ±0-heavy streams, LRA and HRA, several seeds, every
// 499 items the reads are taken before and after the sketch builds its
// view through Snapshot, RankBatch or All in turn; a registry key is
// checked the same way across MarshalBinary, which caches every key's
// view.
func TestSingleReadsIgnoreCachedView(t *testing.T) {
	negZero := math.Copysign(0, -1)
	phis := []float64{0.5, 0, 0.01, 0.25, 0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.75, 0.99, 1}
	probes := []float64{negZero, 0, -1, 1, -256, 255}
	builds := []struct {
		name  string
		build func(s *Float64)
	}{
		{"Snapshot", func(s *Float64) { _ = s.Snapshot() }},
		{"RankBatch", func(s *Float64) { _ = s.RankBatch(nil, probes) }},
		{"All", func(s *Float64) {
			for range s.All() {
				break
			}
		}},
	}
	const n, every = 50000, 499
	for _, hra := range []bool{false, true} {
		for seed := uint64(1); seed <= 4; seed++ {
			opts := []Option{WithSeed(seed)}
			if hra {
				opts = append(opts, WithHighRankAccuracy())
			}
			s, err := NewFloat64(opts...)
			if err != nil {
				t.Fatal(err)
			}
			reg, err := NewRegistryFloat64(opts...)
			if err != nil {
				t.Fatal(err)
			}
			sr := singleReader{s.Quantile, s.QuantilesInto, func(y float64) (uint64, error) { return s.Rank(y), nil }}
			kr := singleReader{
				func(phi float64) (float64, error) { return reg.Quantile("k", phi) },
				func(dst, phis []float64) ([]float64, error) { return reg.QuantilesInto("k", dst, phis) },
				func(y float64) (uint64, error) { return reg.Rank("k", y) },
			}
			x := seed * 0x9e3779b97f4a7c15
			for i := 1; i <= n; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				v := float64(x>>40%512) - 256
				switch x % 4 {
				case 0:
					v = 0
				case 1:
					v = negZero
				}
				s.Update(v)
				reg.Update("k", v)
				if i%every != 0 {
					continue
				}
				b := builds[i/every%len(builds)]
				before := sr.bits(t, phis, probes)
				b.build(s)
				if after := sr.bits(t, phis, probes); !slices.Equal(before, after) {
					t.Fatalf("hra=%v seed=%d after %d items: building the view through %s changed the sketch's single reads:\n%x\n%x",
						hra, seed, i, b.name, before, after)
				}
				before = kr.bits(t, phis, probes)
				if _, err := reg.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
				if after := kr.bits(t, phis, probes); !slices.Equal(before, after) {
					t.Fatalf("hra=%v seed=%d after %d items: MarshalBinary changed the key's single reads:\n%x\n%x",
						hra, seed, i, before, after)
				}
			}
		}
	}
}
