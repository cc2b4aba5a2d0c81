package req

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"strings"

	"req/internal/core"
)

// Binary serialization for registries. A registry encodes as a keyed
// sequence of the package's snapshot records — each key's queryable
// coreset, exactly what SnapshotFloat64.MarshalBinary writes for a single
// sketch — under its own header, so a saved registry restores as a
// RegistrySnapshot whose per-key answers are bit-identical to the live
// registry's Snapshot of that key at capture time. The encoding is
// query-only: like a snapshot record (and unlike a full sketch record) it
// carries no mutable sketch state, because a registry export is a fleet of
// read replicas, not a migration. All integers are little-endian.
//
// Layout:
//
//	magic    [4]byte  "RREG"
//	version  uint8    (1)
//	keyTag   uint8    key type (0 uint64, 1 string)
//	itemTag  uint8    item type (0 float64, 1 uint64)
//	flags    uint8    (reserved, 0)
//	keyCount uint64
//
// then keyCount times:
//
//	key      uint64 (keyTag 0) | uvarint length + bytes (keyTag 1)
//	recLen   uvarint
//	record   recLen bytes: one snapshot record (see serde.go)
//
// Decoders validate structurally and reject hostile or truncated input
// with ErrCorrupt; they never panic.
var registryMagic = [4]byte{'R', 'R', 'E', 'G'}

const registryFormatVersion = 1

// Key type tags used in the registry header.
const (
	keyUint64 = 0
	keyString = 1
)

// maxDecodedKeyLen caps one string key's length while decoding untrusted
// bytes; no sane tenant key approaches it.
const maxDecodedKeyLen = 1 << 20

// registryHeaderSize is the fixed prefix before the keyed records.
const registryHeaderSize = 4 + 4 + 8

// keyCodec serializes one registry key type.
type keyCodec[K comparable] struct {
	tag  byte
	size func(k K) int // encoded length of k
	put  func(out []byte, k K) []byte
	// span measures the key at the front of b: n bytes on the wire, text
	// of them the key's own characters (0 for fixed-width keys). ok is
	// false when b does not hold a whole, sane key.
	span func(b []byte) (n, text int, ok bool)
	// get decodes the key span accepted at the front of b. A string key's
	// characters are appended to keys, grown beforehand by the summed
	// text of every key, and the key is a substring of it: all keys of
	// one decode share one allocation.
	get func(b []byte, keys *strings.Builder) (k K, n int)
}

var stringKeyCodec = keyCodec[string]{
	tag:  keyString,
	size: func(k string) int { return uvarintLen(uint64(len(k))) + len(k) },
	put: func(out []byte, k string) []byte {
		out = binary.AppendUvarint(out, uint64(len(k)))
		return append(out, k...)
	},
	span: func(b []byte) (int, int, bool) {
		l, n := binary.Uvarint(b)
		if n <= 0 || l > maxDecodedKeyLen || l > uint64(len(b)-n) {
			return 0, 0, false
		}
		return n + int(l), int(l), true
	},
	get: func(b []byte, keys *strings.Builder) (string, int) {
		l, n := binary.Uvarint(b)
		keys.Write(b[n : n+int(l)])
		all := keys.String()
		return all[len(all)-int(l):], n + int(l)
	},
}

var uint64KeyCodec = keyCodec[uint64]{
	tag:  keyUint64,
	size: func(uint64) int { return 8 },
	put: func(out []byte, k uint64) []byte {
		return binary.LittleEndian.AppendUint64(out, k)
	},
	span: func(b []byte) (int, int, bool) { return 8, 0, len(b) >= 8 },
	get: func(b []byte, _ *strings.Builder) (uint64, int) {
		return binary.LittleEndian.Uint64(b), 8
	},
}

// appendRegistryHeader appends the fixed registry prefix with the given
// key count (encodeRegistry patches the count in after the walk).
func appendRegistryHeader(out []byte, keyTag, itemTag byte, keyCount uint64) []byte {
	out = append(out, registryMagic[:]...)
	out = append(out, registryFormatVersion, keyTag, itemTag, 0)
	return binary.LittleEndian.AppendUint64(out, keyCount)
}

// encodeRegistry walks the registry's resident keys (shard by shard, each
// shard consistent under its lock) and encodes every key's coreset as one
// snapshot record. The walk builds each sketch's sorted view in place (the
// view stays cached until the key's next write) and marshals it while the
// shard lock is held, so the record is an exact capture; keys
// updated on other shards during the walk land in whichever state the
// walk finds them. A first, cheaper walk sizes the blob from the retained
// counts, so the encode appends into one allocation (keys written between
// the two walks at worst cost an append's regrowth). The allocation also
// reserves the zero padding a registry file adds to the record stream,
// so saving it (registryPayload) copies nothing.
func encodeRegistry[K comparable, T any](r *Registry[K, T], kc keyCodec[K], ic itemCodec[T]) []byte {
	size := registryHeaderSize + packBytesPerCount - 1
	r.Visit(func(key K, s *Sketch[T]) bool {
		size += kc.size(key) + recordBound(s, ic)
		return true
	})
	out := appendRegistryHeader(make([]byte, 0, size), kc.tag, ic.tag, 0)
	var count uint64
	r.Visit(func(key K, s *Sketch[T]) bool {
		out = kc.put(out, key)
		sn := Snapshot[T]{v: s.core.FreezeShared(), cfg: s.core.Config()}
		out = binary.AppendUvarint(out, uint64(frozenRecordLen(&sn, ic)))
		out = appendFrozenRecord(out, &sn, ic)
		count++
		return true
	})
	binary.LittleEndian.PutUint64(out[8:], count)
	return out
}

// recordPrefixLen returns the length of a snapshot record's fixed prefix:
// 4 magic + 5 one-byte fields + 3 float64 params + fixedK u32 +
// seed/n/n0 u64 + min/max + size u32.
func recordPrefixLen[T any](ic itemCodec[T]) int { return 65 + ic.width*2 }

// frozenRecordLen returns the exact encoded length of a frozen coreset's
// snapshot record: the fixed prefix, then per entry a fixed-width item and
// a varint weight of one byte, plus the extra bytes of the few weights of
// 128 or more, found in one pass over the cumulative array.
func frozenRecordLen[T any](sn *Snapshot[T], ic itemCodec[T]) int {
	cum := sn.v.CumulativeWeights()
	n := recordPrefixLen(ic) + (ic.width+1)*len(cum)
	var prev uint64
	for _, c := range cum {
		if w := c - prev; w >= 0x80 {
			n += uvarintLen(w) - 1
		}
		prev = c
	}
	return n
}

// recordBound upper-bounds a key's length-prefixed snapshot record before
// its sketch is frozen: the frozen view holds one entry per retained item,
// and no entry weighs more than an item of the top level, 2^(levels−1).
func recordBound[T any](s *Sketch[T], ic itemCodec[T]) int {
	maxW := uint64(1) << uint(s.NumLevels()-1)
	n := recordPrefixLen(ic) + s.ItemsRetained()*(ic.width+uvarintLen(maxW))
	return uvarintLen(uint64(n)) + n
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decodeRegistryHeader validates the fixed registry prefix.
func decodeRegistryHeader(r *reader, keyTag, itemTag byte) (keyCount uint64, err error) {
	var m [4]byte
	if !r.bytes(m[:]) || m != registryMagic {
		return 0, fmt.Errorf("%w: bad registry magic", ErrCorrupt)
	}
	version, ok := r.u8()
	if !ok || version != registryFormatVersion {
		return 0, fmt.Errorf("%w: unsupported registry version %d", ErrCorrupt, version)
	}
	kt, ok1 := r.u8()
	it, ok2 := r.u8()
	fl, ok3 := r.u8()
	if !ok1 || !ok2 || !ok3 {
		return 0, fmt.Errorf("%w: truncated registry header", ErrCorrupt)
	}
	if kt != keyTag {
		return 0, fmt.Errorf("%w: key type %d does not match the decoder's key type", ErrCorrupt, kt)
	}
	if it != itemTag {
		return 0, fmt.Errorf("%w: item type %d does not match the decoder's item type", ErrCorrupt, it)
	}
	if fl != 0 {
		return 0, fmt.Errorf("%w: unknown registry flags %#x", ErrCorrupt, fl)
	}
	keyCount, ok = r.u64()
	if !ok {
		return 0, fmt.Errorf("%w: truncated registry header", ErrCorrupt)
	}
	return keyCount, nil
}

// decodeRegistryRecords decodes keyCount keyed snapshot records from r in
// two walks. The first reads only key lengths, record lengths and each
// record's coreset-size field, refusing what its bytes cannot hold, and
// sums them. The second decodes every record into storage shared by the
// whole decode — one item arena, one cumulative-weight arena, one slice
// of Snapshot and, for string keys, one string of every key — so a
// restore allocates the same handful of blocks (plus the map's) whatever
// its key count.
func decodeRegistryRecords[K comparable, T any](
	r *reader, keyCount uint64,
	kc keyCodec[K], ic itemCodec[T],
) (map[K]*Snapshot[T], error) {
	// Each key costs at least a one-byte key, a one-byte record length and
	// an empty record's fixed prefix, so a keyCount beyond what the
	// remaining payload can hold is structurally impossible — reject it
	// before sizing anything by it.
	if keyCount > uint64(r.remaining()/(2+recordPrefixLen(ic))) {
		return nil, fmt.Errorf("%w: key count %d exceeds payload", ErrCorrupt, keyCount)
	}
	start := r.off
	var items, text int
	for i := uint64(0); i < keyCount; i++ {
		n, t, ok := kc.span(r.buf[r.off:])
		if !ok {
			return nil, fmt.Errorf("%w: key %d truncated", ErrCorrupt, i)
		}
		r.off += n
		text += t
		rec, ok := r.record()
		if !ok {
			return nil, fmt.Errorf("%w: record %d length", ErrCorrupt, i)
		}
		size, err := recordSize(rec, ic)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		items += size
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.remaining())
	}

	a := arena[T]{items: make([]T, items), cum: make([]uint64, items)}
	snaps := make([]Snapshot[T], keyCount)
	var keys strings.Builder
	keys.Grow(text)
	m := make(map[K]*Snapshot[T], keyCount)
	r.off = start
	for i := range snaps {
		key, n := kc.get(r.buf[r.off:], &keys)
		r.off += n
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("%w: duplicate key at record %d", ErrCorrupt, i)
		}
		rec, _ := r.record() // the first walk accepted it
		if err := decodeRecord(&snaps[i], rec, ic, &a); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		m[key] = &snaps[i]
	}
	return m, nil
}

// decodeRegistry decodes a full registry blob (header + records).
func decodeRegistry[K comparable, T any](
	data []byte,
	kc keyCodec[K], ic itemCodec[T],
) (*RegistrySnapshot[K, T], error) {
	r := reader{buf: data}
	keyCount, err := decodeRegistryHeader(&r, kc.tag, ic.tag)
	if err != nil {
		return nil, err
	}
	m, err := decodeRegistryRecords(&r, keyCount, kc, ic)
	if err != nil {
		return nil, err
	}
	return &RegistrySnapshot[K, T]{m: m}, nil
}

// RegistrySnapshot is an immutable keyed collection of Snapshots: the
// decoded form of a serialized registry. Each key's snapshot answers
// exactly what the live registry's sketch answered at capture time; the
// collection as a whole is safe for any number of concurrent readers.
//
// The snapshots of one restore share its storage: every key's items and
// weights sit in two arrays allocated once for the whole collection. So a
// single *Snapshot kept from Get or All keeps every key's items alive;
// round-trip it through MarshalBinary and UnmarshalSnapshotFloat64 (or
// UnmarshalSnapshotUint64) to hold a copy of its own.
type RegistrySnapshot[K comparable, T any] struct {
	m   map[K]*Snapshot[T]
	gen uint64
}

// RegistrySnapshotFloat64 is the string-keyed float64 instantiation of
// RegistrySnapshot, as restored by UnmarshalRegistryFloat64 and
// OpenRegistryFloat64.
type RegistrySnapshotFloat64 = RegistrySnapshot[string, float64]

// RegistrySnapshotUint64 is the uint64-keyed instantiation of
// RegistrySnapshot, as restored by UnmarshalRegistryUint64 and
// OpenRegistryUint64.
type RegistrySnapshotUint64 = RegistrySnapshot[uint64, uint64]

// Get returns key's snapshot, or ok=false when the capture held no such
// key. The snapshot shares the collection's storage, which stays alive as
// long as the snapshot does; see RegistrySnapshot.
func (rs *RegistrySnapshot[K, T]) Get(key K) (*Snapshot[T], bool) {
	sn, ok := rs.m[key]
	return sn, ok
}

// Len returns the number of keys captured.
func (rs *RegistrySnapshot[K, T]) Len() int { return len(rs.m) }

// Generation returns the snapstore generation the collection was restored
// from (0 when decoded from raw bytes rather than a generation file).
func (rs *RegistrySnapshot[K, T]) Generation() uint64 { return rs.gen }

// All iterates every (key, snapshot) pair in unspecified order.
func (rs *RegistrySnapshot[K, T]) All() iter.Seq2[K, *Snapshot[T]] {
	return func(yield func(K, *Snapshot[T]) bool) {
		for k, sn := range rs.m {
			if !yield(k, sn) {
				return
			}
		}
	}
}

// String returns a short human-readable summary.
func (rs *RegistrySnapshot[K, T]) String() string {
	return fmt.Sprintf("req.RegistrySnapshot{keys=%d, gen=%d}", rs.Len(), rs.gen)
}

// registryCodecs returns the key and item codecs of a registry shape a
// decoder reads — string→float64 (UnmarshalRegistryFloat64) and
// uint64→uint64 (UnmarshalRegistryUint64) — under the natural order, or
// an error for any other registry.
func registryCodecs[K comparable, T any](tab core.Table[T]) (keyCodec[K], itemCodec[T], error) {
	var kc any
	switch any(*new(K)).(type) {
	case string:
		if _, ok := any(*new(T)).(float64); ok {
			kc = stringKeyCodec
		}
	case uint64:
		if _, ok := any(*new(T)).(uint64); ok {
			kc = uint64KeyCodec
		}
	}
	if kc == nil {
		return keyCodec[K]{}, itemCodec[T]{}, errors.New("req: registry encoding supports string→float64 and uint64→uint64 registries only")
	}
	ic, err := codecOf(tab)
	return kc.(keyCodec[K]), ic, err
}

// MarshalBinary implements encoding.BinaryMarshaler: every resident key's
// coreset as a keyed snapshot record (see the package format comment
// above). The walk captures shard by shard under each shard's lock.
// UnmarshalRegistryFloat64 and UnmarshalRegistryUint64 decode it. Other
// registry shapes, and registries under a custom order, return an error
// and encode nothing.
func (r *Registry[K, T]) MarshalBinary() ([]byte, error) {
	kc, ic, err := registryCodecs[K](r.tab)
	if err != nil {
		return nil, err
	}
	return encodeRegistry(r, kc, ic), nil
}

// UnmarshalRegistryFloat64 decodes bytes produced by
// RegistryFloat64.MarshalBinary into an immutable keyed snapshot
// collection. Corrupt input returns ErrCorrupt (wrapped with detail); it
// never panics.
func UnmarshalRegistryFloat64(data []byte) (*RegistrySnapshotFloat64, error) {
	return decodeRegistry(data, stringKeyCodec, float64Codec)
}

// UnmarshalRegistryUint64 decodes bytes produced by
// RegistryUint64.MarshalBinary; see UnmarshalRegistryFloat64.
func UnmarshalRegistryUint64(data []byte) (*RegistrySnapshotUint64, error) {
	return decodeRegistry(data, uint64KeyCodec, uint64Codec)
}
