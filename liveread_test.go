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
