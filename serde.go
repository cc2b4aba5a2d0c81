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
	get   func(r *reader) (T, bool)
	// putAll appends every item of vs — one sweep over contiguous memory
	// with the output grown once, no per-item append bookkeeping.
	putAll func(out []byte, vs []T) []byte
	// getAll decodes len(dst) items in one sweep; false on truncation.
	getAll   func(r *reader, dst []T) bool
	validate func(v T) error
	// less is the canonical order decoded coresets are rebuilt under (and
	// encoded coresets must ascend in): the function NewFloat64/NewUint64
	// build with, so decoded snapshots answer through the same kernel
	// table.
	less func(a, b T) bool
}

var float64Codec = itemCodec[float64]{
	tag:   itemFloat64,
	width: 8,
	put: func(out []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	},
	get: func(r *reader) (float64, bool) {
		v, ok := r.u64()
		return math.Float64frombits(v), ok
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
	getAll: func(r *reader, dst []float64) bool {
		if r.remaining() < 8*len(dst) {
			return false
		}
		b := r.buf[r.off:]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		r.off += 8 * len(dst)
		return true
	},
	validate: func(v float64) error {
		if math.IsNaN(v) {
			return errors.New("NaN item")
		}
		return nil
	},
	less: core.LessF64,
}

var uint64Codec = itemCodec[uint64]{
	tag:   itemUint64,
	width: 8,
	put: func(out []byte, v uint64) []byte {
		return binary.LittleEndian.AppendUint64(out, v)
	},
	get: func(r *reader) (uint64, bool) {
		return r.u64()
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
	getAll: func(r *reader, dst []uint64) bool {
		if r.remaining() < 8*len(dst) {
			return false
		}
		b := r.buf[r.off:]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		r.off += 8 * len(dst)
		return true
	},
	validate: func(uint64) error { return nil },
	less:     core.LessU64,
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
	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = append(out, formatVersion, codec.tag, byte(snap.Config.Mode), byte(snap.Config.Schedule))
	var flags byte
	if snap.Config.HRA {
		flags |= 1
	}
	if snap.Config.PaperConstants {
		flags |= 2
	}
	if snap.Config.DetCoin {
		flags |= 4
	}
	if snap.HasMinMax {
		flags |= 8
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(snap.Config.Eps))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(snap.Config.Delta))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(snap.Config.KHat))
	out = binary.LittleEndian.AppendUint32(out, uint32(snap.Config.K))
	out = binary.LittleEndian.AppendUint64(out, snap.Config.Seed)
	out = binary.LittleEndian.AppendUint64(out, snap.N)
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
	// The level payloads are windows of one contiguous capture slab
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
	getItem := func() T {
		v, ok := codec.get(&r)
		okAll = okAll && ok
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
		r.off = itemsStart[h]
		if !codec.getAll(&r, window) {
			return snap, fmt.Errorf("%w: level %d items truncated", ErrCorrupt, h)
		}
		for i := range window {
			if err := codec.validate(window[i]); err != nil {
				return snap, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
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

// maxDecodedCoresetItems caps the coreset allocation while decoding
// untrusted snapshot bytes; no valid snapshot approaches it.
const maxDecodedCoresetItems = 1 << 28

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
	var boxed any
	var zero T
	switch any(zero).(type) {
	case float64:
		boxed = float64Codec
	case uint64:
		boxed = uint64Codec
	default:
		return itemCodec[T]{}, false
	}
	return boxed.(itemCodec[T]), true
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
	return marshalFrozen(sn.f, codec)
}

// appendSnapshotHeader appends the snapshot-record header — the common
// header (magic through n) followed by n0, min and max — shared by the
// in-memory snapshot encoding (marshalFrozen) and the persisted slab
// format's application header (persist.go). Keeping the two byte-identical
// means one decoder (decodeSnapshotPrefix) serves both.
func appendSnapshotHeader[T any](out []byte, f *core.Frozen[T], codec itemCodec[T]) []byte {
	cfg := f.Config()
	out = append(out, magic[:]...)
	out = append(out, formatVersion, codec.tag, byte(cfg.Mode), byte(cfg.Schedule))
	flags := byte(flagSnapshotRecord)
	if cfg.HRA {
		flags |= 1
	}
	if cfg.PaperConstants {
		flags |= 2
	}
	if cfg.DetCoin {
		flags |= 4
	}
	mn, hasMinMax := f.Min()
	mx, _ := f.Max()
	if hasMinMax {
		flags |= 8
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cfg.Eps))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cfg.Delta))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cfg.KHat))
	out = binary.LittleEndian.AppendUint32(out, uint32(cfg.K))
	out = binary.LittleEndian.AppendUint64(out, cfg.Seed)
	out = binary.LittleEndian.AppendUint64(out, f.Count())
	out = binary.LittleEndian.AppendUint64(out, cfg.N0)
	out = codec.put(out, mn)
	out = codec.put(out, mx)
	return out
}

// decodeSnapshotPrefix decodes what appendSnapshotHeader wrote: the common
// header plus n0/min/max, with min/max validated when present. The cursor
// is left at the first byte after the prefix.
func decodeSnapshotPrefix[T any](r *reader, codec itemCodec[T]) (cfg core.Config, hasMinMax bool, n uint64, mn, mx T, err error) {
	cfg, flags, n, err := decodeHeader(r, codec.tag, true)
	if err != nil {
		return cfg, false, 0, mn, mx, err
	}
	hasMinMax = flags&8 != 0
	okAll := true
	n0, okN0 := r.u64()
	okAll = okAll && okN0
	cfg.N0 = n0
	getItem := func() T {
		v, ok := codec.get(r)
		okAll = okAll && ok
		return v
	}
	mn = getItem()
	mx = getItem()
	if !okAll {
		return cfg, false, 0, mn, mx, fmt.Errorf("%w: truncated snapshot header", ErrCorrupt)
	}
	if hasMinMax {
		if err := codec.validate(mn); err != nil {
			return cfg, false, 0, mn, mx, fmt.Errorf("%w: min: %v", ErrCorrupt, err)
		}
		if err := codec.validate(mx); err != nil {
			return cfg, false, 0, mn, mx, fmt.Errorf("%w: max: %v", ErrCorrupt, err)
		}
	}
	return cfg, hasMinMax, n, mn, mx, nil
}

// appendFrozenRecord appends a frozen coreset's snapshot record — header,
// item count, items, varint weights — to out. It is the append-style core
// of marshalFrozen, shared with the registry encoding, which streams many
// per-key records into one growing buffer.
func appendFrozenRecord[T any](out []byte, f *core.Frozen[T], codec itemCodec[T]) []byte {
	items := f.Items()
	out = appendSnapshotHeader(out, f, codec)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(items)))
	out = codec.putAll(out, items)
	for i := range items {
		out = binary.AppendUvarint(out, f.Weight(i))
	}
	return out
}

// frozenRecordCap upper-bounds the encoded size of a frozen coreset's
// snapshot record (weights are varints, at most 10 bytes each).
func frozenRecordCap(retained int) int {
	return 4 + 2 + 4 + 8*3 + 4 + 8*3 + 8*2 + 4 + 18*retained
}

// marshalFrozen encodes a frozen coreset as a snapshot record.
func marshalFrozen[T any](f *core.Frozen[T], codec itemCodec[T]) ([]byte, error) {
	if err := checkEncodable(f, codec); err != nil {
		return nil, err
	}
	return appendFrozenRecord(make([]byte, 0, frozenRecordCap(f.Size())), f, codec), nil
}

// checkEncodable applies the decoders' item rules before a coreset is
// written: min, max and every item pass codec.validate, and the items
// ascend between min and max under the codec's order. A snapshot of a
// sketch built under another order, or holding NaN, is refused here
// instead of being written as a record that no decoder accepts.
func checkEncodable[T any](f *core.Frozen[T], codec itemCodec[T]) error {
	items := f.Items()
	mn, hasMinMax := f.Min()
	mx, _ := f.Max()
	if hasMinMax {
		if err := errors.Join(codec.validate(mn), codec.validate(mx)); err != nil {
			return fmt.Errorf("req: cannot encode snapshot: min/max: %w", err)
		}
		if codec.less(mx, mn) || len(items) > 0 && (codec.less(items[0], mn) || codec.less(mx, items[len(items)-1])) {
			return errors.New("req: cannot encode snapshot: min/max out of the canonical order")
		}
	}
	for i, v := range items {
		if err := codec.validate(v); err != nil {
			return fmt.Errorf("req: cannot encode snapshot: %w", err)
		}
		if i > 0 && codec.less(v, items[i-1]) {
			return fmt.Errorf("req: cannot encode snapshot: items not ascending in the canonical order at %d", i)
		}
	}
	return nil
}

// unmarshalFrozen decodes a snapshot record into a frozen coreset. It
// never panics on corrupt input; every rejection is wrapped in ErrCorrupt.
func unmarshalFrozen[T any](data []byte, codec itemCodec[T]) (*core.Frozen[T], error) {
	r := reader{buf: data}
	cfg, hasMinMax, n, mn, mx, err := decodeSnapshotPrefix(&r, codec)
	if err != nil {
		return nil, err
	}
	size, okSize := r.u32()
	if !okSize {
		return nil, fmt.Errorf("%w: truncated snapshot header", ErrCorrupt)
	}
	// Items are fixed-width; weights are varints, so only a lower bound on
	// the remaining payload can be checked up front (one byte per weight).
	// The bound is computed in int64: int(size)*9 would overflow a 32-bit
	// int for attacker-chosen sizes and let a tiny record through to a
	// gigabyte allocation.
	if int(size) > maxDecodedCoresetItems || int64(r.remaining()) < int64(size)*9 {
		return nil, fmt.Errorf("%w: coreset size %d does not match payload", ErrCorrupt, size)
	}
	items := make([]T, size)
	if !codec.getAll(&r, items) {
		return nil, fmt.Errorf("%w: coreset items truncated", ErrCorrupt)
	}
	for i := range items {
		if err := codec.validate(items[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	weights := make([]uint64, size)
	for i := range weights {
		w, ok := r.uvarint()
		if !ok {
			return nil, fmt.Errorf("%w: weight %d truncated", ErrCorrupt, i)
		}
		weights[i] = w
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.remaining())
	}
	f, err := core.FrozenFromCoreset(codec.less, cfg, n, mn, mx, hasMinMax, items, weights)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return f, nil
}

// UnmarshalSnapshotFloat64 decodes a snapshot record produced by
// SnapshotFloat64.MarshalBinary into an immutable queryable snapshot.
// Corrupt input returns ErrCorrupt (wrapped with detail); it never panics.
func UnmarshalSnapshotFloat64(data []byte) (*SnapshotFloat64, error) {
	f, err := unmarshalFrozen(data, float64Codec)
	if err != nil {
		return nil, err
	}
	return &Snapshot[float64]{f: f}, nil
}

// UnmarshalSnapshotUint64 decodes a snapshot record produced by
// SnapshotUint64.MarshalBinary; see UnmarshalSnapshotFloat64.
func UnmarshalSnapshotUint64(data []byte) (*SnapshotUint64, error) {
	f, err := unmarshalFrozen(data, uint64Codec)
	if err != nil {
		return nil, err
	}
	return &Snapshot[uint64]{f: f}, nil
}

// reader is a bounds-checked cursor over the encoded bytes.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

// skip advances the cursor n bytes; the caller has already checked bounds.
func (r *reader) skip(n int) { r.off += n }

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

func (r *reader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, false
	}
	r.off += n
	return v, true
}
