package req

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"req/internal/core"
)

// recordCase is one hand-built snapshot record: its coreset's items, the
// bytes of its weights, n and min/max.
type recordCase[T any] struct {
	name    string
	n       uint64
	mn, mx  T
	has     bool
	items   []T
	weights []byte
}

// uvarints encodes ws as the weight bytes of a record.
func uvarints(ws ...uint64) []byte {
	var b []byte
	for _, w := range ws {
		b = binary.AppendUvarint(b, w)
	}
	return b
}

// reference decodes c's weights as uvarints summed into a cumulative array,
// wrapping as uint64 does, and returns those arrays with the refusal of
// core.FrozenFromParts and then VerifyStructure, or nil if both accept. A
// truncated weight or a trailing byte leaves no arrays to check, and is
// refused as such.
func (c recordCase[T]) reference(tab core.Table[T]) (cum []uint64, err error) {
	cum = make([]uint64, len(c.items))
	b := c.weights
	var run uint64
	for i := range cum {
		w, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, fmt.Errorf("weight %d truncated", i)
		}
		run += w
		cum[i], b = run, b[k:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	v, err := core.FrozenFromParts(tab, c.n, c.mn, c.mx, c.has, slices.Clone(c.items), slices.Clone(cum))
	if err == nil {
		err = v.VerifyStructure()
	}
	return cum, err
}

// record encodes c as a snapshot record under cfg.
func (c recordCase[T]) record(codec itemCodec[T], cfg core.Config) []byte {
	out := appendHeader(nil, codec.tag, cfg, flagSnapshotRecord, c.has, c.n)
	out = binary.LittleEndian.AppendUint64(out, cfg.N0)
	out = codec.put(out, c.mn)
	out = codec.put(out, c.mx)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.items)))
	out = codec.putAll(out, c.items)
	return append(out, c.weights...)
}

// checkRecordCases decodes every case's record alone and inside a one-key
// registry blob, and wants ErrCorrupt from both exactly when the reference
// refuses the case, naming the reference's fault; an accepted record must
// hold the reference's arrays.
func checkRecordCases[K, T comparable](
	t *testing.T, cases []recordCase[T], cfg core.Config,
	codec itemCodec[T], kc keyCodec[K], key K,
	decode func([]byte) (*Snapshot[T], error),
	decodeRegistry func([]byte) (*RegistrySnapshot[K, T], error),
) {
	t.Helper()
	for _, c := range cases {
		cum, want := c.reference(codec.tab)
		ok := want == nil
		rec := c.record(codec, cfg)
		blob := appendRegistryHeader(nil, kc.tag, codec.tag, 1)
		blob = binary.AppendUvarint(kc.put(blob, key), uint64(len(rec)))
		blob = append(blob, rec...)
		sn, err := decode(rec)
		rs, regErr := decodeRegistry(blob)
		for _, e := range []error{err, regErr} {
			if ok && e != nil {
				t.Errorf("%s: refused: %v", c.name, e)
			}
			if !ok && (!errors.Is(e, ErrCorrupt) || !strings.Contains(e.Error(), want.Error())) {
				t.Errorf("%s: want ErrCorrupt naming %q, got %v", c.name, want, e)
			}
		}
		if !ok || err != nil || regErr != nil {
			continue
		}
		got, _ := rs.Get(key)
		for _, s := range []*Snapshot[T]{sn, got} {
			if s.Count() != c.n || !slices.Equal(s.v.Items(), c.items) || !slices.Equal(s.v.CumulativeWeights(), cum) {
				t.Errorf("%s: decoded another coreset", c.name)
			}
		}
	}
}

// TestDecodeRecordRefusals pins the snapshot-record decoder's refusals on
// hand-built records: each case is refused with ErrCorrupt exactly when
// core.FrozenFromParts followed by VerifyStructure refuses its arrays, alone
// and inside a registry blob, and the error names the fault those checks
// name first. The weight cases place one-byte runs, zero
// bytes and multi-byte weights at every position of an eight-byte group.
func TestDecodeRecordRefusals(t *testing.T) {
	const size = 24
	ones := func() []uint64 {
		ws := make([]uint64, size)
		for i := range ws {
			ws[i] = 1
		}
		return ws
	}
	sum := func(ws []uint64) (n uint64) {
		for _, w := range ws {
			n += w
		}
		return n
	}

	// float64: items 1..size, weight 1 each, unless a case says otherwise.
	fcase := func(name string, edit func(items []float64, ws []uint64) (mn, mx float64, n uint64, weights []byte)) recordCase[float64] {
		items := make([]float64, size)
		for i := range items {
			items[i] = float64(i + 1)
		}
		ws := ones()
		mn, mx, n, weights := edit(items, ws)
		return recordCase[float64]{name: name, n: n, mn: mn, mx: mx, has: true, items: items, weights: weights}
	}
	// keep leaves min, max and n at what the edited items and weights say.
	keep := func(items []float64, ws []uint64) (float64, float64, uint64, []byte) {
		return items[0], items[size-1], sum(ws), uvarints(ws...)
	}
	negZero := math.Copysign(0, -1)
	fcases := []recordCase[float64]{
		{name: "empty", weights: nil},
		{name: "empty with an item", items: []float64{1}, weights: uvarints(1)},
		{name: "empty with a NaN", items: []float64{math.NaN()}, weights: uvarints(1)},
		{name: "empty with a descending pair", items: []float64{2, 1}, weights: uvarints(1, 1)},
		{name: "empty with a zero weight", items: []float64{1, 2}, weights: uvarints(1, 0)},
		fcase("clean", keep),
		fcase("NaN first", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[0] = math.NaN()
			return 1, is[size-1], sum(ws), uvarints(ws...)
		}),
		fcase("NaN middle", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[size/2] = math.NaN()
			return keep(is, ws)
		}),
		fcase("NaN last", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[size-1] = math.NaN()
			return is[0], size, sum(ws), uvarints(ws...)
		}),
		fcase("descending pair", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[5], is[6] = is[6], is[5]
			return keep(is, ws)
		}),
		fcase("equal neighbours", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[6] = is[5]
			return keep(is, ws)
		}),
		fcase("-0 then +0", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[0], is[1], is[2] = -1, negZero, 0
			return keep(is, ws)
		}),
		fcase("+0 then -0", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[0], is[1], is[2] = -1, 0, negZero
			return keep(is, ws)
		}),
		fcase("first item below min", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			return is[0] + 0.5, is[size-1], sum(ws), uvarints(ws...)
		}),
		fcase("last item above max", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			return is[0], is[size-1] - 0.5, sum(ws), uvarints(ws...)
		}),
		fcase("zero weight", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			ws[3] = 0
			return keep(is, ws)
		}),
		fcase("zero weight in two bytes", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			b := uvarints(ws[:3]...)
			b = append(b, 0x80, 0x00)
			return is[0], is[size-1], sum(ws) - 1, append(b, uvarints(ws[4:]...)...)
		}),
		fcase("weights wrap past 2^64", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			ws[0], ws[1] = 1<<63, 1<<63+5
			return keep(is, ws) // n is the sum mod 2^64
		}),
		fcase("sum from just under 2^62", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			ws[0] = 1<<62 - 10
			return keep(is, ws)
		}),
		fcase("weights sum to n-1", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			return is[0], is[size-1], sum(ws) + 1, uvarints(ws...)
		}),
		fcase("weights sum to n+1", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			return is[0], is[size-1], sum(ws) - 1, uvarints(ws...)
		}),
		fcase("truncated multi-byte weight", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			ws[size-1] = 200
			b := uvarints(ws...)
			return is[0], is[size-1], sum(ws), b[:len(b)-1]
		}),
		fcase("trailing byte", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			return is[0], is[size-1], sum(ws), append(uvarints(ws...), 1)
		}),
		// Two faults at once: the one the reference checks meet first is named.
		fcase("NaN and a trailing byte", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[4] = math.NaN()
			return is[0], is[size-1], sum(ws), append(uvarints(ws...), 1)
		}),
		fcase("descending pair and n+1", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[5], is[6] = is[6], is[5]
			return is[0], is[size-1], sum(ws) + 1, uvarints(ws...)
		}),
		fcase("descending pair and a zero weight", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			is[5], is[6], ws[2] = is[6], is[5], 0
			return keep(is, ws)
		}),
		fcase("zero weight and min above the first item", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			ws[2] = 0
			return is[0] + 0.5, is[size-1], sum(ws), uvarints(ws...)
		}),
		fcase("zero weight and a truncated weight", func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			ws[2], ws[size-1] = 0, 200
			b := uvarints(ws...)
			return is[0], is[size-1], sum(ws), b[:len(b)-1]
		}),
	}
	// A first weight just under 2^64, so that the sum wraps at each position
	// of the weights after it.
	for d := uint64(0); d < 20; d++ {
		fcases = append(fcases, fcase(fmt.Sprintf("sum wraps from 2^64-1-%d", d), func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
			ws[0] = math.MaxUint64 - d
			return keep(is, ws)
		}))
	}
	// Every position of the first two eight-weight groups: a zero weight,
	// a two-byte weight (its first byte ≥ 0x80), and a one-byte run of the
	// largest one-byte weight.
	for p := 0; p < 16; p++ {
		for _, w := range []uint64{0, 200, 0x80, 0x7f} {
			fcases = append(fcases, fcase(fmt.Sprintf("weight %d at %d", w, p), func(is []float64, ws []uint64) (float64, float64, uint64, []byte) {
				ws[p] = w
				return keep(is, ws)
			}))
		}
	}
	empty, err := NewFloat64()
	if err != nil {
		t.Fatal(err)
	}
	checkRecordCases(t, fcases, empty.Snapshot().cfg, float64Codec, stringKeyCodec, "k",
		UnmarshalSnapshotFloat64, UnmarshalRegistryFloat64)

	// uint64: items 10, 20, ..., weight 1 each.
	ucase := func(name string, edit func(items []uint64, ws []uint64)) recordCase[uint64] {
		items := make([]uint64, size)
		for i := range items {
			items[i] = uint64(10 * (i + 1))
		}
		ws := ones()
		edit(items, ws)
		return recordCase[uint64]{name: name, n: sum(ws), mn: items[0], mx: items[size-1], has: true, items: items, weights: uvarints(ws...)}
	}
	ucases := []recordCase[uint64]{
		ucase("clean", func([]uint64, []uint64) {}),
		ucase("descending pair", func(is, _ []uint64) { is[5], is[6] = is[6], is[5] }),
		ucase("descending first pair", func(is, _ []uint64) { is[0], is[1] = is[1], is[0] }),
		ucase("equal neighbours", func(is, _ []uint64) { is[6] = is[5] }),
		ucase("first item 0", func(is, _ []uint64) { is[0] = 0 }),
		ucase("zero weight", func(_, ws []uint64) { ws[9] = 0 }),
		ucase("two-byte weight", func(_, ws []uint64) { ws[9] = 300 }),
	}
	emptyU, err := NewUint64()
	if err != nil {
		t.Fatal(err)
	}
	checkRecordCases(t, ucases, emptyU.Snapshot().cfg, uint64Codec, uint64KeyCodec, uint64(7),
		UnmarshalSnapshotUint64, UnmarshalRegistryUint64)
}
