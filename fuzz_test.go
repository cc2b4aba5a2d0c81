package req

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// Fuzz targets: `go test -fuzz=FuzzDecodeFloat64` explores further; in
// normal test runs the seed corpus exercises the paths.

// FuzzDecodeFloat64 asserts the decoder never panics and that anything it
// accepts is a structurally valid sketch.
func FuzzDecodeFloat64(f *testing.F) {
	// Seed corpus: valid encodings of various shapes plus garbage — and a
	// snapshot record, which the full-sketch decoder must reject.
	empty, _ := NewFloat64(WithEpsilon(0.1))
	blob, _ := empty.MarshalBinary()
	f.Add(blob)

	full := mustFuzzSketch()
	blob2, _ := full.MarshalBinary()
	f.Add(blob2)
	f.Add([]byte{})
	f.Add([]byte("REQ1"))
	f.Add(blob2[:len(blob2)/2])
	mut := append([]byte(nil), blob2...)
	mut[10] ^= 0xFF
	f.Add(mut)
	snapBlob, _ := full.Snapshot().MarshalBinary()
	f.Add(snapBlob)
	// Hostile-geometry regressions: headers whose khat/eps demand absurd
	// restore capacity once made the decoder panic (float→int overflow) or
	// allocate gigabytes; they must be cheap ErrCorrupt rejections.
	for _, hostile := range [][2]interface{}{
		{25, 1e15}, {25, math.Inf(1)}, {25, math.NaN()}, {9, math.NaN()},
	} {
		h := append([]byte(nil), blob2...)
		off, v := hostile[0].(int), hostile[1].(float64)
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h[off+i] = byte(bits >> (8 * i))
		}
		f.Add(h)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeFloat64(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection not wrapped in ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted sketches must be internally consistent and usable.
		if s.Count() > 0 {
			if _, err := s.Quantile(0.5); err != nil {
				t.Fatalf("accepted sketch cannot answer quantile: %v", err)
			}
		}
		_ = s.Rank(0)
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatalf("accepted sketch cannot re-encode: %v", err)
		}
	})
}

// FuzzDecodeSnapshotFloat64 asserts the snapshot decoder never panics,
// rejects corruption with ErrCorrupt, and that anything it accepts is a
// queryable snapshot whose re-encoding round-trips bit-identically.
func FuzzDecodeSnapshotFloat64(f *testing.F) {
	// Seed corpus: valid snapshot records of several shapes, mutations of
	// one, and a full sketch record (must be rejected).
	empty, _ := NewFloat64(WithEpsilon(0.1))
	emptyBlob, _ := empty.Snapshot().MarshalBinary()
	f.Add(emptyBlob)

	full := mustFuzzSketch()
	snapBlob, _ := full.Snapshot().MarshalBinary()
	f.Add(snapBlob)
	sketchBlob, _ := full.MarshalBinary()
	f.Add(sketchBlob)
	f.Add([]byte{})
	f.Add(snapBlob[:len(snapBlob)/2])
	for _, off := range []int{5, 6, 40, 60, len(snapBlob) - 9} {
		mut := append([]byte(nil), snapBlob...)
		mut[off] ^= 0xFF
		f.Add(mut)
	}
	// Hostile-geometry headers (see FuzzDecodeFloat64): khat/eps chosen to
	// bait a huge allocation out of the config-driven restore path.
	for _, hostile := range [][2]interface{}{{25, 1e15}, {25, math.NaN()}, {9, math.NaN()}} {
		h := append([]byte(nil), snapBlob...)
		off, v := hostile[0].(int), hostile[1].(float64)
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h[off+i] = byte(bits >> (8 * i))
		}
		f.Add(h)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := UnmarshalSnapshotFloat64(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection not wrapped in ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted snapshots must be internally consistent and usable.
		if sn.Count() > 0 {
			q, err := sn.Quantile(0.5)
			if err != nil {
				t.Fatalf("accepted snapshot cannot answer quantile: %v", err)
			}
			mn, _ := sn.Min()
			mx, _ := sn.Max()
			if q < mn || mx < q {
				t.Fatalf("median %v outside [%v, %v]", q, mn, mx)
			}
			var total uint64
			for _, w := range sn.All() {
				total += w
			}
			if total != sn.Count() {
				t.Fatalf("coreset weights sum to %d, count is %d", total, sn.Count())
			}
		}
		_ = sn.Rank(0)
		// Re-encoding reaches a fixed point after one round trip (the first
		// decode may normalize config defaults) and preserves answers.
		reblob, err := sn.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted snapshot cannot re-encode: %v", err)
		}
		sn2, err := UnmarshalSnapshotFloat64(reblob)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if sn2.Count() != sn.Count() || sn2.Rank(0.5) != sn.Rank(0.5) {
			t.Fatal("re-encoded snapshot answers differently")
		}
		reblob2, err := sn2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reblob, reblob2) {
			t.Fatal("snapshot re-encoding is not a fixed point")
		}
	})
}

// fuzzReadPhis is the φ set FuzzUpdateRank reads after every chunk.
var fuzzReadPhis = []float64{0.5, 0, 0.01, 0.25, 0.9, 0.99, 1}

// FuzzUpdateRank asserts basic sanity for arbitrary input values: counts
// track updates, ranks are monotone and bounded, quantiles invert ranks.
// chunk (1 + chunk%97 items) splits the stream: after every chunk a live
// QuantilesInto must answer like a Snapshot taken then (== under <), and
// the live reads after that Snapshot must still do so.
func FuzzUpdateRank(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0))
	f.Add([]byte{255, 0, 255, 0}, uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 200), uint8(2), uint8(6))
	var perm []byte // 3,000 distinct values, shuffled
	for i := 0; i < 3000; i++ {
		perm = binary.BigEndian.AppendUint64(perm, math.Float64bits(float64(i*7919%3000)))
	}
	f.Add(perm, uint8(3), uint8(10))
	f.Fuzz(func(t *testing.T, raw []byte, seed, chunk uint8) {
		s, err := NewFloat64(WithEpsilon(0.1), WithSeed(uint64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		per := 1 + int(chunk)%97
		var live, frozen []float64
		n := uint64(0)
		for i := 0; i+8 <= len(raw); i += 8 {
			bits := uint64(0)
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(raw[i+j])
			}
			v := math.Float64frombits(bits)
			s.Update(v) // NaN must be ignored
			if !math.IsNaN(v) {
				n++
			}
			if i/8%per != per-1 || n == 0 {
				continue
			}
			if live, err = s.QuantilesInto(live, fuzzReadPhis); err != nil {
				t.Fatal(err)
			}
			if frozen, err = s.Snapshot().QuantilesInto(frozen, fuzzReadPhis); err != nil {
				t.Fatal(err)
			}
			for k, phi := range fuzzReadPhis {
				if live[k] != frozen[k] {
					t.Fatalf("after %d items: live φ=%v = %v, snapshot %v", n, phi, live[k], frozen[k])
				}
			}
		}
		if s.Count() != n {
			t.Fatalf("count %d after %d non-NaN updates", s.Count(), n)
		}
		if n == 0 {
			return
		}
		mn, _ := s.Min()
		mx, _ := s.Max()
		if s.Rank(mx) != n {
			t.Fatalf("Rank(max) = %d, want %d", s.Rank(mx), n)
		}
		if s.RankExclusive(mn) != 0 {
			t.Fatal("RankExclusive(min) != 0")
		}
		q, err := s.Quantile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if fuzzLess(q, mn) || fuzzLess(mx, q) {
			t.Fatalf("median %v outside [min, max]", q)
		}
	})
}

// fuzzLess is the float64 order of the fuzz assertions.
func fuzzLess(a, b float64) bool { return a < b }

func mustFuzzSketch() *Float64 {
	s, err := NewFloat64(WithEpsilon(0.1), WithSeed(9))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 30000; i++ {
		s.Update(float64(i % 977))
	}
	return s
}
