package req

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"req/internal/core"
	"req/internal/schedule"
)

// Binary serialization for float64 and uint64 sketches and snapshots. The
// format is self-describing and versioned, with two record kinds sharing
// one header (flag bit4 distinguishes them):
//
//   - a FULL SKETCH record captures complete sketch state including the
//     random generator, so a restored sketch continues exactly where the
//     original stopped (MarshalBinary / DecodeFloat64 / DecodeUint64);
//   - a SNAPSHOT record captures only the queryable coreset — items,
//     weights, min/max and the config header — the query-only state a read
//     replica needs, decoding straight into an immutable reader
//     (Snapshot.MarshalBinary / UnmarshalSnapshotFloat64 /
//     UnmarshalSnapshotUint64).
//
// Decoders reject the other kind's records with ErrCorrupt rather than
// misreading them. All integers are little-endian.
//
// Common header:
//
//	magic   [4]byte  "REQ1"
//	version uint8    (1)
//	itype   uint8    item type (0 float64, 1 uint64)
//	mode    uint8    core.Mode
//	sched   uint8    schedule.Kind
//	flags   uint8    bit0 HRA, bit1 PaperConstants, bit2 DetCoin,
//	                 bit3 hasMinMax, bit4 snapshot record
//	eps     float64
//	delta   float64
//	khat    float64
//	fixedK  uint32
//	seed    uint64
//	n       uint64
//
// Full sketch records continue:
//
//	bound   uint64
//	n0      uint64
//	min     item
//	max     item
//	rng     uint64 word, uint64 bits, uint8 nbits
//	stats   5×uint64, uint32 (compactions, special, growths, merges, coins, maxbuf)
//	levels  uint8 count, then per level: uint64 state, uint32 len, len×item
//
// Snapshot records continue:
//
//	n0      uint64
//	min     item
//	max     item
//	size    uint32   number of coreset entries
//	items   size×item     (ascending)
//	weights size×uvarint  (per-item weights, summing to n; weights are
//	                       small powers of two, so most take one byte)
var (
	magic = [4]byte{'R', 'E', 'Q', '1'}

	// ErrCorrupt is returned when decoding fails structural validation.
	ErrCorrupt = errors.New("req: corrupt or truncated sketch encoding")
)

const formatVersion = 1

// flagSnapshotRecord marks a snapshot (coreset-only) record in the flags
// byte; full sketch records keep it clear.
const flagSnapshotRecord = 16

// Item type tags used in the encoding header.
const (
	itemFloat64 = 0
	itemUint64  = 1
)

// maxDecodedLevelItems caps per-level allocation while decoding untrusted
// bytes; no valid sketch in this format approaches it.
const maxDecodedLevelItems = 1 << 28

// itemCodec serializes one item type. Implementations must be fixed-width
// (width bytes per item): the decoder sizes and skips level payloads
// arithmetically, which is what lets it lay all levels out in one
// contiguous slab before decoding a single item.
type itemCodec[T any] struct {
	tag   byte
	width int
	put   func(out []byte, v T) []byte
	// get decodes the item at the front of b, which holds width bytes.
	get func(b []byte) T
	// putAll appends every item of vs — one sweep over contiguous memory
	// with the output grown once, no per-item append bookkeeping.
	putAll func(out []byte, vs []T) []byte
	// getAll decodes len(dst) items from the front of b, which holds
	// width·len(dst) bytes, in one sweep.
	getAll func(b []byte, dst []T)
	// getAsc is getAll for a coreset: the same sweep also checks each item
	// against the order's item rule and its predecessor, and stops,
	// reporting false, at the first item that is refused or descends.
	getAsc func(b []byte, dst []T) bool
	// less is the canonical order decoded sketches and coresets are
	// rebuilt under (and encoded coresets must ascend in): the function
	// NewFloat64/NewUint64 build with, so decoded snapshots answer through
	// the same kernel table. tab is its kernel table, resolved once here
	// rather than per record: its item rule (no NaN floats) checks a full
	// sketch's levels, and decoded coresets are rebuilt under it.
	less func(a, b T) bool
	tab  core.Table[T]
}

var float64Codec = itemCodec[float64]{
	tag:   itemFloat64,
	width: 8,
	put: func(out []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	},
	get: func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	},
	putAll: func(out []byte, vs []float64) []byte {
		off := len(out)
		out = appendZeros(out, 8*len(vs))
		for _, v := range vs {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
			off += 8
		}
		return out
	},
	getAll: func(b []byte, dst []float64) {
		b = b[:8*len(dst)]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	},
	getAsc: func(b []byte, dst []float64) bool {
		b = b[:8*len(dst)]
		prev := math.Inf(-1)
		for i := range dst {
			x := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			if !(x >= prev) { // a NaN or a descent
				return false
			}
			dst[i], prev = x, x
		}
		return true
	},
	less: core.LessF64,
	tab:  core.TableFor(core.LessF64),
}

var uint64Codec = itemCodec[uint64]{
	tag:   itemUint64,
	width: 8,
	put: func(out []byte, v uint64) []byte {
		return binary.LittleEndian.AppendUint64(out, v)
	},
	get: func(b []byte) uint64 {
		return binary.LittleEndian.Uint64(b)
	},
	putAll: func(out []byte, vs []uint64) []byte {
		off := len(out)
		out = appendZeros(out, 8*len(vs))
		for _, v := range vs {
			binary.LittleEndian.PutUint64(out[off:], v)
			off += 8
		}
		return out
	},
	getAll: func(b []byte, dst []uint64) {
		b = b[:8*len(dst)]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	},
	getAsc: func(b []byte, dst []uint64) bool {
		b = b[:8*len(dst)]
		var prev uint64
		for i := range dst {
			x := binary.LittleEndian.Uint64(b[8*i:])
			if x < prev {
				return false
			}
			dst[i], prev = x, x
		}
		return true
	},
	less: core.LessU64,
	tab:  core.TableFor(core.LessU64),
}

// appendZeros extends out by n zero bytes. Callers presize their buffers,
// so the in-place reslice is the expected path.
func appendZeros(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out[:len(out)+n]
	}
	return append(out, make([]byte, n)...)
}

// marshalSnapshot encodes a snapshot under the given codec.
func marshalSnapshot[T any](snap core.Snapshot[T], codec itemCodec[T]) ([]byte, error) {
	size := 4 + 2 + 4 + 8*3 + 4 + 8*4 + 8*2 + (8 + 8 + 1) + (8*5 + 4) + 1
	for _, lv := range snap.Levels {
		size += 8 + 4 + 8*len(lv.Items)
	}
	out := appendHeader(make([]byte, 0, size), codec.tag, snap.Config, 0, snap.HasMinMax, snap.N)
	out = binary.LittleEndian.AppendUint64(out, snap.Bound)
	out = binary.LittleEndian.AppendUint64(out, snap.Config.N0)
	out = codec.put(out, snap.Min)
	out = codec.put(out, snap.Max)
	out = binary.LittleEndian.AppendUint64(out, snap.RNG.Word)
	out = binary.LittleEndian.AppendUint64(out, snap.RNG.Bits)
	out = append(out, snap.RNG.NBits)
	out = binary.LittleEndian.AppendUint64(out, snap.Stats.Compactions)
	out = binary.LittleEndian.AppendUint64(out, snap.Stats.SpecialCompactions)
	out = binary.LittleEndian.AppendUint64(out, snap.Stats.Growths)
	out = binary.LittleEndian.AppendUint64(out, snap.Stats.Merges)
	out = binary.LittleEndian.AppendUint64(out, snap.Stats.CoinFlips)
	out = binary.LittleEndian.AppendUint32(out, uint32(snap.Stats.MaxBufferLen))
	if len(snap.Levels) > 255 {
		return nil, fmt.Errorf("req: %d levels cannot be encoded", len(snap.Levels))
	}
	out = append(out, byte(len(snap.Levels)))
	// The level payloads are windows of one contiguous capture
	// (core.Sketch.Snapshot lays them out back to back), so this loop is a
	// single forward sweep over contiguous memory: 12 header bytes per
	// level, then a bulk item write.
	for _, lv := range snap.Levels {
		out = binary.LittleEndian.AppendUint64(out, lv.State)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(lv.Items)))
		out = codec.putAll(out, lv.Items)
	}
	return out, nil
}

// appendHeader appends the header fields shared by both record kinds —
// magic through the stream length n — that decodeHeader reads back. kind
// is 0 for a full sketch record or flagSnapshotRecord.
func appendHeader(out []byte, tag byte, cfg core.Config, kind byte, hasMinMax bool, n uint64) []byte {
	flags := kind
	if cfg.HRA {
		flags |= 1
	}
	if cfg.PaperConstants {
		flags |= 2
	}
	if cfg.DetCoin {
		flags |= 4
	}
	if hasMinMax {
		flags |= 8
	}
	out = append(out, magic[:]...)
	out = append(out, formatVersion, tag, byte(cfg.Mode), byte(cfg.Schedule), flags)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cfg.Eps))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cfg.Delta))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cfg.KHat))
	out = binary.LittleEndian.AppendUint32(out, uint32(cfg.K))
	out = binary.LittleEndian.AppendUint64(out, cfg.Seed)
	return binary.LittleEndian.AppendUint64(out, n)
}

// decodeHeader parses the header fields shared by both record kinds —
// magic through the stream length n — validating magic, version, item
// type, and that the record is of the wanted kind (the other kind is
// rejected with ErrCorrupt and a pointer to the right decoder). The
// returned flags carry the hasMinMax bit (bit3).
func decodeHeader(r *reader, tag byte, wantSnapshot bool) (cfg core.Config, flags byte, n uint64, err error) {
	var m [4]byte
	if !r.bytes(m[:]) || m != magic {
		return cfg, 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version, ok := r.u8()
	if !ok || version != formatVersion {
		return cfg, 0, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	itype, ok := r.u8()
	if !ok || itype != tag {
		return cfg, 0, 0, fmt.Errorf("%w: item type %d does not match the decoder's item type", ErrCorrupt, itype)
	}
	mode, ok1 := r.u8()
	sched, ok2 := r.u8()
	fl, ok3 := r.u8()
	if !ok1 || !ok2 || !ok3 {
		return cfg, 0, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if isSnap := fl&flagSnapshotRecord != 0; isSnap != wantSnapshot {
		if isSnap {
			return cfg, 0, 0, fmt.Errorf("%w: data encodes a query snapshot, not a full sketch; decode with UnmarshalSnapshotFloat64/UnmarshalSnapshotUint64", ErrCorrupt)
		}
		return cfg, 0, 0, fmt.Errorf("%w: data encodes a full sketch, not a query snapshot; decode with DecodeFloat64/DecodeUint64", ErrCorrupt)
	}
	cfg.Mode = core.Mode(mode)
	cfg.Schedule = schedule.Kind(sched)
	cfg.HRA = fl&1 != 0
	cfg.PaperConstants = fl&2 != 0
	cfg.DetCoin = fl&4 != 0
	okAll := true
	u64 := func() uint64 {
		v, ok := r.u64()
		okAll = okAll && ok
		return v
	}
	cfg.Eps = math.Float64frombits(u64())
	cfg.Delta = math.Float64frombits(u64())
	cfg.KHat = math.Float64frombits(u64())
	k, okK := r.u32()
	okAll = okAll && okK
	cfg.K = int(k)
	cfg.Seed = u64()
	n = u64()
	if !okAll {
		return cfg, 0, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	return cfg, fl, n, nil
}

// unmarshalSnapshot decodes bytes produced by marshalSnapshot. It never
// panics on corrupt input.
func unmarshalSnapshot[T any](data []byte, codec itemCodec[T]) (core.Snapshot[T], error) {
	var snap core.Snapshot[T]
	r := reader{buf: data}
	cfg, flags, n, err := decodeHeader(&r, codec.tag, false)
	if err != nil {
		return snap, err
	}
	snap.Config = cfg
	snap.N = n
	snap.HasMinMax = flags&8 != 0

	okAll := true
	getU64 := func() uint64 {
		v, ok := r.u64()
		okAll = okAll && ok
		return v
	}
	getItem := func() (v T) {
		b, ok := r.next(codec.width)
		if okAll = okAll && ok; ok {
			v = codec.get(b)
		}
		return v
	}

	snap.Bound = getU64()
	snap.Config.N0 = getU64()
	snap.Min = getItem()
	snap.Max = getItem()
	snap.RNG.Word = getU64()
	snap.RNG.Bits = getU64()
	nbits, ok := r.u8()
	okAll = okAll && ok
	snap.RNG.NBits = nbits
	snap.Stats.Compactions = getU64()
	snap.Stats.SpecialCompactions = getU64()
	snap.Stats.Growths = getU64()
	snap.Stats.Merges = getU64()
	snap.Stats.CoinFlips = getU64()
	maxBuf, okMB := r.u32()
	okAll = okAll && okMB
	snap.Stats.MaxBufferLen = int(maxBuf)
	if !okAll {
		return snap, fmt.Errorf("%w: truncated body", ErrCorrupt)
	}
	numLevels, ok := r.u8()
	if !ok || numLevels == 0 {
		return snap, fmt.Errorf("%w: missing levels", ErrCorrupt)
	}
	// Pass 1 — structure: walk the level headers, skipping the fixed-width
	// item payloads arithmetically. This sizes the whole level section
	// (rejecting truncation and trailing garbage) before a single item byte
	// is touched, so pass 2 can decode every level into ONE contiguous slab.
	type levelHeader struct {
		state uint64
		count int
	}
	headers := make([]levelHeader, numLevels)
	itemsStart := make([]int, numLevels)
	total := 0
	for h := range headers {
		state, ok1 := r.u64()
		count, ok2 := r.u32()
		if !ok1 || !ok2 || int(count) > maxDecodedLevelItems {
			return snap, fmt.Errorf("%w: level %d header", ErrCorrupt, h)
		}
		// int64 math: int(count)*width can overflow a 32-bit int at the cap.
		if int64(r.remaining()) < int64(count)*int64(codec.width) {
			return snap, fmt.Errorf("%w: level %d items truncated", ErrCorrupt, h)
		}
		headers[h] = levelHeader{state: state, count: int(count)}
		itemsStart[h] = r.off
		r.skip(int(count) * codec.width)
		total += int(count)
	}
	if r.remaining() != 0 {
		return snap, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.remaining())
	}
	// Pass 2 — payload: bulk-decode each level's window of the slab. total
	// is bounded by len(data)/width (pass 1 walked every payload), so the
	// allocation cannot be baited beyond the input's own size.
	slab := make([]T, total)
	snap.Levels = make([]core.LevelSnapshot[T], numLevels)
	off := 0
	for h, hd := range headers {
		window := slab[off : off+hd.count : off+hd.count]
		codec.getAll(data[itemsStart[h]:], window)
		if !codec.tab.AdmitsAll(window) {
			return snap, fmt.Errorf("%w: level %d holds a NaN item", ErrCorrupt, h)
		}
		snap.Levels[h] = core.LevelSnapshot[T]{State: hd.state, Items: window}
		off += hd.count
	}
	return snap, nil
}

// MarshalBinary implements encoding.BinaryMarshaler: a full sketch record,
// random stream included, so DecodeFloat64 / DecodeUint64 restore a sketch
// that continues exactly where s stopped. Only float64 and uint64 sketches
// under their natural order (NewFloat64, NewUint64) encode, because the
// decoders rebuild under that order; any other sketch returns an error.
func (s *Sketch[T]) MarshalBinary() ([]byte, error) {
	codec, err := codecOf(s.core.Table())
	if err != nil {
		return nil, err
	}
	return marshalSnapshot(s.core.Snapshot(), codec)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state, order included: the decoded sketch runs under T's
// natural order, as NewFloat64 / NewUint64 build it. Corrupt input returns
// ErrCorrupt (wrapped with detail); it never panics. Item types other than
// float64 and uint64 return an error.
func (s *Sketch[T]) UnmarshalBinary(data []byte) error {
	codec, ok := codecFor[T]()
	if !ok {
		return errNoCodec
	}
	snap, err := unmarshalSnapshot(data, codec)
	if err != nil {
		return err
	}
	c, err := core.FromSnapshot(codec.less, snap)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.core = c
	return nil
}

// DecodeFloat64 allocates and decodes a sketch from its binary encoding.
func DecodeFloat64(data []byte) (*Float64, error) {
	var s Float64
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeUint64 allocates and decodes a sketch from its binary encoding.
func DecodeUint64(data []byte) (*Uint64, error) {
	var s Uint64
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &s, nil
}

// errNoCodec refuses to encode or decode an item type without a codec.
var errNoCodec = errors.New("req: binary encoding supports float64 and uint64 items only")

// codecOf returns T's codec for a container under the order tab, or an
// error when T has no codec or tab is not T's natural order, which the
// decoders rebuild under.
func codecOf[T any](tab core.Table[T]) (itemCodec[T], error) {
	codec, ok := codecFor[T]()
	if !ok {
		return codec, errNoCodec
	}
	if !tab.Canonical() {
		return codec, errors.New("req: cannot encode a sketch under a custom order: the decoders rebuild under the natural order")
	}
	return codec, nil
}

// codecFor returns the item codec for T when T is one of the serializable
// item types (float64, uint64).
func codecFor[T any]() (itemCodec[T], bool) {
	var zero T
	switch any(zero).(type) {
	case float64:
		return *any(&float64Codec).(*itemCodec[T]), true
	case uint64:
		return *any(&uint64Codec).(*itemCodec[T]), true
	}
	return itemCodec[T]{}, false
}

// MarshalBinary implements encoding.BinaryMarshaler: it encodes the
// snapshot's coreset (items, varint weights, min/max, config header) as a
// snapshot record of the package's versioned binary format — a query-only
// encoding decoded by UnmarshalSnapshotFloat64 / UnmarshalSnapshotUint64
// into an immutable reader, carrying none of the sketch's mutable
// state. Only float64 and uint64 snapshots serialize; for other item
// types, export the coreset through All.
func (sn *Snapshot[T]) MarshalBinary() ([]byte, error) {
	codec, ok := codecFor[T]()
	if !ok {
		return nil, fmt.Errorf("req: snapshot serialization supports float64 and uint64 items only; range over All to export other types")
	}
	return marshalFrozen(sn, codec)
}

// appendSnapshotHeader appends the snapshot-record header — the common
// header (magic through n) followed by n0, min and max — shared by the
// in-memory snapshot encoding (marshalFrozen) and the persisted slab
// format's application header (persist.go). Keeping the two byte-identical
// means one decoder (decodeSnapshotPrefix) serves both.
func appendSnapshotHeader[T any](out []byte, sn *Snapshot[T], codec itemCodec[T]) []byte {
	mn, hasMinMax := sn.v.Min()
	mx, _ := sn.v.Max()
	out = appendHeader(out, codec.tag, sn.cfg, flagSnapshotRecord, hasMinMax, sn.v.Count())
	out = binary.LittleEndian.AppendUint64(out, sn.cfg.N0)
	out = codec.put(out, mn)
	out = codec.put(out, mx)
	return out
}

// decodeSnapshotPrefix decodes what appendSnapshotHeader wrote: the common
// header plus n0/min/max, and returns the config normalized — validated
// as the source sketch's was, so a snapshot re-encodes it as written. The
// cursor is left at the first byte after the prefix. min and max are
// checked where the coreset is rebuilt (core.FrozenFromParts), against
// the order's item rule.
func decodeSnapshotPrefix[T any](r *reader, codec itemCodec[T]) (cfg core.Config, hasMinMax bool, n uint64, mn, mx T, err error) {
	cfg, flags, n, err := decodeHeader(r, codec.tag, true)
	if err != nil {
		return cfg, false, 0, mn, mx, err
	}
	b, ok := r.next(8 + 2*codec.width)
	if !ok {
		return cfg, false, 0, mn, mx, fmt.Errorf("%w: truncated snapshot header", ErrCorrupt)
	}
	cfg.N0 = binary.LittleEndian.Uint64(b)
	if err := cfg.Normalize(); err != nil {
		return cfg, false, 0, mn, mx, fmt.Errorf("%w: coreset config: %v", ErrCorrupt, err)
	}
	mn = codec.get(b[8:])
	mx = codec.get(b[8+codec.width:])
	return cfg, flags&8 != 0, n, mn, mx, nil
}

// appendFrozenRecord appends a frozen coreset's snapshot record — header,
// item count, items, varint weights — to out. It is the append-style core
// of marshalFrozen, shared with the registry encoding, which streams many
// per-key records into one growing buffer. The weights are the differences
// of the frozen cumulative array, written in the same sweep that takes
// them.
func appendFrozenRecord[T any](out []byte, sn *Snapshot[T], codec itemCodec[T]) []byte {
	items := sn.v.Items()
	out = appendSnapshotHeader(out, sn, codec)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(items)))
	out = codec.putAll(out, items)
	var prev uint64
	for _, c := range sn.v.CumulativeWeights() {
		if w := c - prev; w < 0x80 {
			out = append(out, byte(w))
		} else {
			out = binary.AppendUvarint(out, w)
		}
		prev = c
	}
	return out
}

// marshalFrozen encodes a frozen coreset as a snapshot record, into a
// buffer of exactly the record's length.
func marshalFrozen[T any](sn *Snapshot[T], codec itemCodec[T]) ([]byte, error) {
	if err := checkEncodable(sn, codec); err != nil {
		return nil, err
	}
	return appendFrozenRecord(make([]byte, 0, frozenRecordLen(sn, codec)), sn, codec), nil
}

// checkEncodable applies the decoders' item rules before a coreset is
// written: min, max and every item admitted by the codec's order (no NaN),
// and the items ascending between min and max under it, as the decoders
// check them (core.Table.CheckCoreset). A snapshot of a sketch built under
// another order, or holding NaN, is refused here instead of being written
// as a record that no decoder accepts.
func checkEncodable[T any](sn *Snapshot[T], codec itemCodec[T]) error {
	mn, hasMinMax := sn.v.Min()
	if !hasMinMax {
		return nil // empty: no items, no extremes
	}
	mx, _ := sn.v.Max()
	if err := codec.tab.CheckCoreset(sn.v.Items(), mn, mx); err != nil {
		return fmt.Errorf("req: cannot encode snapshot: %w", err)
	}
	return nil
}

// arena is the storage snapshot records decode into: each record takes its
// items and cumulative weights from the front, capped so that no record's
// slices reach into the next one's. A registry decode sizes it for every
// record in its first walk. An arena too short for a record — a single
// snapshot's, which starts empty — is replaced by one of exactly the
// record's size.
type arena[T any] struct {
	items []T
	cum   []uint64
}

// take returns the next n entries of both arrays.
func (a *arena[T]) take(n int) (items []T, cum []uint64) {
	if len(a.items) < n {
		a.items, a.cum = make([]T, n), make([]uint64, n)
	}
	items, cum = a.items[:n:n], a.cum[:n:n]
	a.items, a.cum = a.items[n:], a.cum[n:]
	return items, cum
}

// recordSize reads a snapshot record's coreset-size field and refuses a
// size the record cannot hold: every entry takes width item bytes and at
// least one weight byte. A size that passes is at most len(rec)/9, so an
// arena sized by it never holds more items than its input can encode. The
// bound is computed in int64, where a hostile size cannot overflow it on
// a 32-bit platform and pass.
func recordSize[T any](rec []byte, codec itemCodec[T]) (int, error) {
	prefix := recordPrefixLen(codec)
	body := len(rec) - prefix
	if body < 0 {
		return 0, fmt.Errorf("%w: truncated snapshot header", ErrCorrupt)
	}
	size := binary.LittleEndian.Uint32(rec[prefix-4:])
	if int64(size)*int64(codec.width+1) > int64(body) {
		return 0, fmt.Errorf("%w: coreset size %d does not match payload", ErrCorrupt, size)
	}
	return int(size), nil
}

// decodeRecord decodes one snapshot record into sn, its coreset's storage
// taken from a, in one pass over the items (codec.getAsc decodes, admits
// and order-checks them) and one over the weights (sumWeights), so that
// core.FrozenFromParts has only O(1) checks left. A record either pass
// flags is decoded in full and goes on to VerifyStructure, which refuses
// it and names the fault. It never panics on corrupt input; every
// rejection is wrapped in ErrCorrupt.
func decodeRecord[T any](sn *Snapshot[T], rec []byte, codec itemCodec[T], a *arena[T]) error {
	r := reader{buf: rec}
	cfg, hasMinMax, n, mn, mx, err := decodeSnapshotPrefix(&r, codec)
	if err != nil {
		return err
	}
	size, err := recordSize(rec, codec)
	if err != nil {
		return err
	}
	items, cum := a.take(size)
	b := rec[recordPrefixLen(codec):]
	ascends := codec.getAsc(b, items)
	if !ascends {
		codec.getAll(b, items) // rare: the checks below read every item
	}
	rises, err := sumWeights(b[size*codec.width:], cum)
	if err != nil {
		return err
	}
	v, err := core.FrozenFromParts(codec.tab, n, mn, mx, hasMinMax, items, cum)
	if err == nil && !(ascends && rises) {
		err = v.VerifyStructure() // rare: it decides and names the fault
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	sn.v, sn.cfg = v, cfg
	return nil
}

// sumWeights decodes len(cum) uvarint weights, which must fill b exactly,
// into their running sums, and reports whether every sum rose (a zero
// weight or a wrap past 2^64 does not). A weight is 2^h after h
// compactions, one byte for h < 7: eight bytes all in 1..127 are eight
// weights, summed from one 64-bit load with no test per weight, which
// below 2^62 cannot wrap the sum. Other groups, and all once the sum
// reaches 2^62, take the byte loop, which reads a one-byte weight inline.
func sumWeights(b []byte, cum []uint64) (rises bool, err error) {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	rises = true
	var run uint64
	off := 0
	for i := 0; i < len(cum); {
		if len(cum)-i >= 8 && len(b)-off >= 8 && run < 1<<62 {
			// Every byte below 0x80 and none zero: neither v nor v−ones
			// (no borrow when no byte is zero) sets a high bit.
			if v := binary.LittleEndian.Uint64(b[off:]); (v|(v-ones))&highs == 0 {
				c := cum[i : i+8 : i+8]
				c[0] = run + v&0xff
				c[1] = c[0] + v>>8&0xff
				c[2] = c[1] + v>>16&0xff
				c[3] = c[2] + v>>24&0xff
				c[4] = c[3] + v>>32&0xff
				c[5] = c[4] + v>>40&0xff
				c[6] = c[5] + v>>48&0xff
				c[7] = c[6] + v>>56
				run = c[7]
				i, off = i+8, off+8
				continue
			}
		}
		for end := min(i+8, len(cum)); i < end; i++ {
			w, k := uint64(0), 1
			if off < len(b) && b[off] < 0x80 {
				w = uint64(b[off])
			} else if w, k = binary.Uvarint(b[off:]); k <= 0 {
				return false, fmt.Errorf("%w: weight %d truncated", ErrCorrupt, i)
			}
			if run+w <= run {
				rises = false
			}
			run += w
			cum[i], off = run, off+k
		}
	}
	if off != len(b) {
		return false, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-off)
	}
	return rises, nil
}

// decodeSnapshot decodes a single snapshot record.
func decodeSnapshot[T any](data []byte, codec itemCodec[T]) (*Snapshot[T], error) {
	sn := new(Snapshot[T])
	if err := decodeRecord(sn, data, codec, &arena[T]{}); err != nil {
		return nil, err
	}
	return sn, nil
}

// UnmarshalSnapshotFloat64 decodes a snapshot record produced by
// SnapshotFloat64.MarshalBinary into an immutable queryable snapshot.
// Corrupt input returns ErrCorrupt (wrapped with detail); it never panics.
func UnmarshalSnapshotFloat64(data []byte) (*SnapshotFloat64, error) {
	return decodeSnapshot(data, float64Codec)
}

// UnmarshalSnapshotUint64 decodes a snapshot record produced by
// SnapshotUint64.MarshalBinary; see UnmarshalSnapshotFloat64.
func UnmarshalSnapshotUint64(data []byte) (*SnapshotUint64, error) {
	return decodeSnapshot(data, uint64Codec)
}

// reader is a bounds-checked cursor over the encoded bytes.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

// skip advances the cursor n bytes; the caller has already checked bounds.
func (r *reader) skip(n int) { r.off += n }

// next returns the next n bytes and advances past them.
func (r *reader) next(n int) ([]byte, bool) {
	if r.remaining() < n {
		return nil, false
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, true
}

func (r *reader) bytes(dst []byte) bool {
	if r.remaining() < len(dst) {
		return false
	}
	copy(dst, r.buf[r.off:])
	r.off += len(dst)
	return true
}

func (r *reader) u8() (byte, bool) {
	if r.remaining() < 1 {
		return 0, false
	}
	v := r.buf[r.off]
	r.off++
	return v, true
}

func (r *reader) u32() (uint32, bool) {
	if r.remaining() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, true
}

func (r *reader) u64() (uint64, bool) {
	if r.remaining() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, true
}

// record splits one length-prefixed record off the cursor: a uvarint
// length, then that many bytes.
func (r *reader) record() ([]byte, bool) {
	l, ok := r.uvarint()
	if !ok || l > uint64(r.remaining()) {
		return nil, false
	}
	return r.next(int(l))
}

func (r *reader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, false
	}
	r.off += n
	return v, true
}
