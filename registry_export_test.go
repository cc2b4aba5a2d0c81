package req

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"req/internal/rng"
)

// An export encodes only the keys written since the last one and copies
// every other key's record from the stream that export kept. These tests
// hold it to a full encode, byte for byte: exportReference assembles what
// a full export writes from the public API alone, and every export of a
// registry driven through writes, deletes, capacity evictions, TTL
// expiries on a clock that steps both ways, Reset, live reads and
// Snapshots must equal it.

// exportReference is a full encode of r, assembled from the public API:
// the RREG header, then for each key in Visit order the key, a uvarint
// length and the key's Snapshot().MarshalBinary().
func exportReference[K comparable, T any](tb testing.TB, r *Registry[K, T], putKey func([]byte, K) []byte, keyTag, itemTag byte) []byte {
	tb.Helper()
	var body []byte
	var count uint64
	r.Visit(func(key K, s *Sketch[T]) bool {
		rec, err := s.Snapshot().MarshalBinary()
		if err != nil {
			tb.Fatalf("key %v: %v", key, err)
		}
		body = putKey(body, key)
		body = binary.AppendUvarint(body, uint64(len(rec)))
		body = append(body, rec...)
		count++
		return true
	})
	out := append([]byte("RREG"), 1, keyTag, itemTag, 0)
	out = binary.LittleEndian.AppendUint64(out, count)
	return append(out, body...)
}

func putStringKey(out []byte, k string) []byte {
	out = binary.AppendUvarint(out, uint64(len(k)))
	return append(out, k...)
}

func putUint64Key(out []byte, k uint64) []byte { return binary.LittleEndian.AppendUint64(out, k) }

// exportTTL is the idle TTL of the tape's registries; a clock step moves
// by a sixteenth of it, forward or back.
const exportTTL = int64(time.Minute)

// exportTape drives one registry through a tape of operations and checks
// every export against exportReference. Each operation reads an opcode
// byte and its argument bytes from the tape; a tape that runs out ends
// the run.
type exportTape[K comparable, T any] struct {
	tb      testing.TB
	reg     *Registry[K, T]
	clk     *fakeClock
	key     func(b byte) K // 40 distinct keys, so keys recur and evict
	val     func(b byte) T
	putKey  func([]byte, K) []byte
	keyTag  byte
	itemTag byte
	tape    []byte
	exports int
}

// newExportTape returns a tape runner over a fresh registry of 4 shards,
// capped at 24 keys, with exportTTL on a synthetic clock.
func newExportTape[K comparable, T any](tb testing.TB, mk func(...Option) (*Registry[K, T], error),
	key func(byte) K, val func(byte) T, putKey func([]byte, K) []byte, keyTag, itemTag byte, seed uint64) *exportTape[K, T] {
	clk := &fakeClock{}
	reg, err := mk(WithK(4), WithSeed(seed), WithShards(4), WithMaxEntries(24),
		WithTTL(time.Duration(exportTTL)), clk.opt())
	if err != nil {
		tb.Fatal(err)
	}
	return &exportTape[K, T]{tb: tb, reg: reg, clk: clk, key: key, val: val, putKey: putKey, keyTag: keyTag, itemTag: itemTag}
}

// next pops one tape byte; ok is false once the tape is spent.
func (x *exportTape[K, T]) next() (b byte, ok bool) {
	if len(x.tape) == 0 {
		return 0, false
	}
	b, x.tape = x.tape[0], x.tape[1:]
	return b, true
}

// pairs pops up to n (key, value) byte pairs.
func (x *exportTape[K, T]) pairs(n int) ([]K, []T) {
	var ks []K
	var vs []T
	for i := 0; i < n; i++ {
		a, ok1 := x.next()
		b, ok2 := x.next()
		if !ok1 || !ok2 {
			break
		}
		ks, vs = append(ks, x.key(a)), append(vs, x.val(b))
	}
	return ks, vs
}

// run executes the tape: 0–1 Update, 2 UpdateBatch, 3 UpdatePairs, 4
// UpdateKVs, 5 Delete, 6 ExpireNow, 7 a clock step, 8 live reads, 9
// Snapshot, 10 Reset (one argument in 32) or an export, 11–15 an export.
func (x *exportTape[K, T]) run(tape []byte) {
	x.tape = tape
	for {
		op, ok := x.next()
		if !ok {
			return
		}
		a, _ := x.next()
		b, _ := x.next()
		r := x.reg
		switch op % 16 {
		case 0, 1:
			r.Update(x.key(a), x.val(b))
		case 2:
			vs := make([]T, 1+int(b)%48)
			for i := range vs {
				vs[i] = x.val(b + byte(7*i))
			}
			r.UpdateBatch(x.key(a), vs)
		case 3:
			ks, vs := x.pairs(1 + int(a)%24)
			r.UpdatePairs(ks, vs)
		case 4:
			ks, vs := x.pairs(1 + int(a)%24)
			kvs := make([]KV[K, T], len(ks))
			for i := range ks {
				kvs[i] = KV[K, T]{ks[i], vs[i]}
			}
			r.UpdateKVs(kvs)
		case 5:
			r.Delete(x.key(a))
		case 6:
			r.ExpireNow()
		case 7:
			x.clk.now += (int64(a) - 96) * exportTTL / 16
		case 8:
			k := x.key(a)
			_, _ = r.Quantile(k, float64(b)/255)
			_, _ = r.QuantilesInto(k, nil, []float64{0, 0.5, 0.99})
			_, _ = r.Rank(k, x.val(b))
			_ = r.Count(k)
		case 9:
			_, _ = r.Snapshot(x.key(a))
		case 10:
			if a < 8 {
				r.Reset()
				continue
			}
			x.check()
		default:
			x.check()
		}
	}
}

// check exports and compares the blob with a full encode, byte for byte.
func (x *exportTape[K, T]) check() {
	x.tb.Helper()
	blob, err := x.reg.MarshalBinary()
	if err != nil {
		x.tb.Fatal(err)
	}
	x.exports++
	want := exportReference(x.tb, x.reg, x.putKey, x.keyTag, x.itemTag)
	if !bytes.Equal(blob, want) {
		at := 0
		for at < min(len(blob), len(want)) && blob[at] == want[at] {
			at++
		}
		x.tb.Fatalf("export %d (%d keys) differs from a full encode at byte %d of %d (want %d bytes)",
			x.exports, x.reg.Len(), at, len(blob), len(want))
	}
}

// float64 and uint64 tape alphabets. The float64 values include ±0 (equal
// under the order, different in their bytes), repeats and NaN, which
// every write path drops.
func exportKeyString(b byte) string { return fmt.Sprintf("key-%02d", b%40) }
func exportKeyUint64(b byte) uint64 { return uint64(b%40) * 0x9e3779b97f4a7c15 }
func exportValFloat64(b byte) float64 {
	switch {
	case b%16 == 0:
		return 0
	case b%16 == 1:
		return math.Copysign(0, -1)
	case b == 255:
		return math.NaN()
	}
	return float64(b%97) - 40
}
func exportValUint64(b byte) uint64 { return uint64(b) * uint64(b%13+1) }

func newFloat64ExportTape(tb testing.TB, seed uint64) *exportTape[string, float64] {
	return newExportTape(tb, NewRegistryFloat64, exportKeyString, exportValFloat64, putStringKey, keyString, float64Codec.tag, seed)
}

func newUint64ExportTape(tb testing.TB, seed uint64) *exportTape[uint64, uint64] {
	return newExportTape(tb, NewRegistryUint64, exportKeyUint64, exportValUint64, putUint64Key, keyUint64, uint64Codec.tag, seed)
}

// TestRegistryExportMatchesFullEncode runs random 6,000-byte tapes (under
// 2,000 operations) on a float64 and a uint64 registry at four seeds; each
// tape exports over three hundred times.
func TestRegistryExportMatchesFullEncode(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tape := make([]byte, 6000)
		r := rng.New(seed)
		for i := range tape {
			tape[i] = byte(r.Uint64())
		}
		for _, x := range []interface {
			run([]byte)
			count() int
		}{newFloat64ExportTape(t, seed), newUint64ExportTape(t, seed)} {
			x.run(tape)
			if x.count() < 30 {
				t.Fatalf("seed %d: %d exports, want at least 30", seed, x.count())
			}
		}
	}
}

func (x *exportTape[K, T]) count() int { return x.exports }

// FuzzRegistryExport runs a fuzzer-chosen tape (see exportTape.run) on a
// float64 registry, checking every export against a full encode.
func FuzzRegistryExport(f *testing.F) {
	f.Add([]byte{0, 1, 2, 11, 0, 0, 0, 3, 4, 12, 0, 0})                                        // write, export, write another key, export
	f.Add([]byte{2, 5, 40, 11, 0, 0, 7, 200, 0, 11, 0, 0, 0, 5, 9, 11, 0, 0})                  // write, export, step past the TTL, export, write again, export
	f.Add([]byte{2, 5, 40, 11, 0, 0, 7, 250, 0, 11, 0, 0, 7, 0, 0, 7, 0, 0, 11, 0, 0})         // write, export, expire by a step, export, step back twice, export
	f.Add([]byte{3, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 0, 0, 10, 0, 0, 2, 1, 9, 12, 0, 0})      // four pairs, export, Reset, write, export
	f.Add([]byte{8, 3, 3, 9, 3, 0, 2, 3, 30, 11, 0, 0, 5, 3, 0, 11, 0, 0, 2, 3, 16, 11, 0, 0}) // read, Snapshot, write, export, delete, export, write, export
	r := rng.New(99)
	seed := make([]byte, 600)
	for i := range seed {
		seed[i] = byte(r.Uint64())
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 1<<12 {
			tape = tape[:1<<12]
		}
		x := newFloat64ExportTape(t, 1)
		x.run(tape)
		x.check()
	})
}
