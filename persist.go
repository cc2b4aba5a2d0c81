package req

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"req/internal/core"
	"req/internal/snapstore"
)

// Crash-safe zero-copy snapshot persistence.
//
// A Snapshot's storage is two parallel arrays: the sorted items and their
// cumulative weights. SaveSnapshot writes them raw — little-endian,
// 64-byte-aligned, each protected by a CRC32C — into a versioned slab file
// (format 2), and OpenSnapshot* serves queries directly FROM that file: on
// unix the file is mmap'd read-only and the arrays are aliased in place,
// so opening performs no per-item decoding and no per-item allocation
// regardless of snapshot size. Elsewhere (or with WithoutMmap) the file is
// read into one aligned buffer and aliased the same way.
//
// Durability model (see internal/snapstore for the format and the
// fault-injection proof):
//
//   - each save writes a NEW generation file (snap-<gen>.reqsnap) via
//     write-temp → fsync(file) → rename → fsync(dir), so a crash at any
//     byte leaves either the previous generations or the new one — never
//     a torn file under a final name;
//   - opening a directory recovers the newest generation that validates,
//     skipping torn or corrupt files (ErrTornWrite / ErrCorrupt detail the
//     rejections when nothing survives);
//   - old generations are pruned only after the new one is durable.
//
// The mapping is read-only (PROT_READ): the kernel enforces the package's
// aliasing discipline, and a mapped snapshot stays valid even if its file
// is pruned later (the inode lives until Close).

// Re-exported persistence sentinels. Both are distinct from ErrCorrupt in
// errors.Is terms — but every ErrTornWrite also Is ErrCorrupt, and open
// failures from the req layer additionally wrap req.ErrCorrupt.
var (
	// ErrTornWrite marks a snapshot file whose write never completed:
	// truncated mid-write, missing its footer, or shorter than its own
	// layout says. It wraps ErrCorrupt.
	ErrTornWrite = snapstore.ErrTornWrite
	// ErrNoSnapshot is returned when opening a snapshot directory that
	// contains no generations at all.
	ErrNoSnapshot = snapstore.ErrNoSnapshot
)

// VerifyMode selects how much of a snapshot file is checked at open.
type VerifyMode int

const (
	// VerifyChecksum (the default) validates the footer, the header, and
	// every section's CRC32C — one pass over the raw bytes at memory
	// bandwidth, still with no per-item decoding or allocation.
	VerifyChecksum VerifyMode = iota
	// VerifyFull adds an O(n) structural audit on top of the checksums:
	// items sorted, weights strictly increasing and conserved, no NaN
	// floats. Use it when the file's producer is untrusted (checksums only
	// prove the file is what its writer wrote, not that its writer was
	// honest).
	VerifyFull
	// VerifyNone skips section checksums: O(1) structural checks only
	// (magic, footer/torn-write detection, header CRC, section geometry).
	// Opening is microseconds at any size; use for files under the
	// caller's own integrity regime.
	VerifyNone
)

// OpenOption tunes OpenSnapshot* calls.
type OpenOption func(*openConfig)

type openConfig struct {
	verify VerifyMode
	noMmap bool
}

// WithVerify selects the verification level (default VerifyChecksum).
func WithVerify(m VerifyMode) OpenOption {
	return func(c *openConfig) { c.verify = m }
}

// WithoutMmap forces the portable read path: the file is read into one
// aligned buffer instead of memory-mapped. Queries behave identically.
func WithoutMmap() OpenOption {
	return func(c *openConfig) { c.noMmap = true }
}

func resolveOpen(opts []OpenOption) (openConfig, snapstore.OpenOptions) {
	var c openConfig
	for _, o := range opts {
		o(&c)
	}
	return c, snapstore.OpenOptions{
		SkipChecksum: c.verify == VerifyNone,
		NoMmap:       c.noMmap,
	}
}

// MappedSnapshot is a Snapshot served zero-copy from a persisted snapshot
// file. It answers every Snapshot query (bit-identically to the Snapshot
// that was saved) while its arrays alias the file's read-only mapping, so
// it adds no heap copy of the coreset. Close releases the mapping; every
// query after Close may fault — close only after the last reader is done.
// Like Snapshot, a MappedSnapshot is immutable and safe for any number of
// concurrent readers.
type MappedSnapshot[T any] struct {
	Snapshot[T]
	file *snapstore.File
	gen  uint64
}

// MappedFloat64 is the float64 instantiation of MappedSnapshot.
type MappedFloat64 = MappedSnapshot[float64]

// MappedUint64 is the uint64 instantiation of MappedSnapshot.
type MappedUint64 = MappedSnapshot[uint64]

// Generation returns the snapshot file's generation number.
func (m *MappedSnapshot[T]) Generation() uint64 { return m.gen }

// Mapped reports whether the snapshot is served by a memory mapping
// (false on the portable read path).
func (m *MappedSnapshot[T]) Mapped() bool { return m.file.Mapped() }

// Close releases the file mapping. The snapshot — and any slice iterated
// from it — must not be used afterwards.
func (m *MappedSnapshot[T]) Close() error { return m.file.Close() }

// snapshotPayload lowers a snapshot's coreset to the slab format's
// payload: the serde snapshot header as the application header, the
// stream length as the total, and the view's two arrays as raw
// little-endian sections.
func snapshotPayload[T any](sn *Snapshot[T], codec itemCodec[T]) *snapstore.Payload {
	items, cum := sn.v.Items(), sn.v.CumulativeWeights()
	p := &snapstore.Payload{
		App:   appendSnapshotHeader(make([]byte, 0, 128), sn, codec),
		Count: uint64(len(items)),
		Total: sn.v.Count(),
	}
	if len(items) == 0 {
		return p
	}
	p.Sections[snapstore.SecViewItems] = codec.putAll(make([]byte, 0, 8*len(items)), items)
	p.Sections[snapstore.SecViewCum] = uint64Codec.putAll(make([]byte, 0, 8*len(cum)), cum)
	return p
}

// payloadFor validates that T persists and lowers the snapshot.
func payloadFor[T any](sn *Snapshot[T]) (*snapstore.Payload, error) {
	codec, ok := codecFor[T]()
	if !ok {
		return nil, fmt.Errorf("req: snapshot persistence supports float64 and uint64 items only")
	}
	if err := checkEncodable(sn, codec); err != nil {
		return nil, err
	}
	return snapshotPayload(sn, codec), nil
}

// SaveSnapshot durably writes the snapshot as the next generation in the
// snapshot directory dir (created if missing) and returns the generation
// number. The write is atomic under crashes — a reader (or a restart)
// sees either the previous generations or the new one, never a torn file
// — and old generations beyond the most recent two are pruned only once
// the new one is durable.
func (sn *Snapshot[T]) SaveSnapshot(dir string) (uint64, error) {
	p, err := payloadFor(sn)
	if err != nil {
		return 0, err
	}
	return snapstore.NewStore(snapstore.OS, dir).Save(p)
}

// WriteSnapshotFile durably writes the snapshot as a single standalone
// file at path (write-temp → fsync → rename → fsync(dir)), outside any
// generation rotation. Open it with OpenSnapshotFileFloat64 /
// OpenSnapshotFileUint64.
func (sn *Snapshot[T]) WriteSnapshotFile(path string) error {
	p, err := payloadFor(sn)
	if err != nil {
		return err
	}
	return snapstore.WriteSnapshotFile(snapstore.OS, path, 1, p)
}

// SaveSnapshot captures the sketch's current state and durably writes it
// to the snapshot directory dir; see Snapshot.SaveSnapshot. Like
// MarshalBinary it returns an error, and writes nothing, unless the items
// are float64 or uint64 under their natural order.
func (s *Sketch[T]) SaveSnapshot(dir string) (uint64, error) {
	if _, err := codecOf(s.core.Table()); err != nil {
		return 0, err
	}
	return s.Snapshot().SaveSnapshot(dir)
}

// SaveSnapshot captures the sharded sketch's current epoch snapshot and
// durably writes it to the snapshot directory dir. Only float64 and
// uint64 item types persist; other types return an error. See
// Snapshot.SaveSnapshot.
func (s *Sharded[T]) SaveSnapshot(dir string) (uint64, error) {
	return s.Snapshot().SaveSnapshot(dir)
}

// wrapOpenErr folds a snapstore rejection into the package error space:
// corruption rejections additionally wrap req.ErrCorrupt (ErrTornWrite
// and ErrNoSnapshot already pass errors.Is for their own sentinels).
func wrapOpenErr(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNoSnapshot) {
		return err
	}
	if errors.Is(err, snapstore.ErrCorrupt) {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return err
}

// sectionWords views an 8-aligned section as []uint64: a zero-copy alias
// on little-endian hosts, a decoded copy elsewhere.
func sectionWords(sec []byte) []uint64 {
	if snapstore.AliasingOK() {
		return snapstore.Words(sec)
	}
	out := make([]uint64, len(sec)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(sec[8*i:])
	}
	return out
}

// sectionFloats is sectionWords for float64 payloads.
func sectionFloats(sec []byte) []float64 {
	if snapstore.AliasingOK() {
		return snapstore.Floats(sec)
	}
	out := make([]float64, len(sec)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[8*i:]))
	}
	return out
}

// openMapped bridges an opened slab file to a queryable snapshot: parse
// the application header (the serde snapshot prefix — O(1)), check the
// header's total against the stream length, alias the two sections as the
// frozen coreset's arrays, and rebuild the view around them with O(1)
// validation. With VerifyFull, an O(n) structural audit runs on top. On
// success the returned snapshot owns the file.
func openMapped[T any](
	file *snapstore.File,
	codec itemCodec[T],
	itemsOf func([]byte) []T,
	verify VerifyMode,
) (*MappedSnapshot[T], error) {
	r := reader{buf: file.Header.App}
	cfg, hasMinMax, n, mn, mx, err := decodeSnapshotPrefix(&r, codec)
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("%w: application header: %w", snapstore.ErrCorrupt, err)
	}
	if r.remaining() != 0 {
		file.Close()
		return nil, fmt.Errorf("%w: %w: %d trailing application header bytes", ErrCorrupt, snapstore.ErrCorrupt, r.remaining())
	}
	if file.Header.Total != n {
		file.Close()
		return nil, fmt.Errorf("%w: %w: header total %d != n %d", ErrCorrupt, snapstore.ErrCorrupt, file.Header.Total, n)
	}
	v, err := core.FrozenFromParts(codec.tab, n, mn, mx, hasMinMax,
		itemsOf(file.Section(snapstore.SecViewItems)),
		sectionWords(file.Section(snapstore.SecViewCum)))
	if err == nil && verify == VerifyFull {
		err = v.VerifyStructure()
	}
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("%w: %w: %v", ErrCorrupt, snapstore.ErrCorrupt, err)
	}
	return &MappedSnapshot[T]{
		Snapshot: Snapshot[T]{v: v, cfg: cfg},
		file:     file,
		gen:      file.Header.Gen,
	}, nil
}

// OpenSnapshotFloat64 opens the newest valid generation in the snapshot
// directory dir as a zero-copy queryable snapshot, skipping torn or
// corrupt generations (crash recovery). It returns ErrNoSnapshot when the
// directory holds no generations, and an error wrapping ErrCorrupt when
// generations exist but none validates. Close the result when done.
func OpenSnapshotFloat64(dir string, opts ...OpenOption) (*MappedFloat64, error) {
	c, so := resolveOpen(opts)
	file, err := snapstore.NewStore(snapstore.OS, dir).OpenLatest(so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openMapped(file, float64Codec, sectionFloats, c.verify)
}

// OpenSnapshotUint64 is OpenSnapshotFloat64 for uint64 snapshots.
func OpenSnapshotUint64(dir string, opts ...OpenOption) (*MappedUint64, error) {
	c, so := resolveOpen(opts)
	file, err := snapstore.NewStore(snapstore.OS, dir).OpenLatest(so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openMapped(file, uint64Codec, sectionWords, c.verify)
}

// OpenSnapshotFileFloat64 opens one snapshot file (a generation file or a
// WriteSnapshotFile product) as a zero-copy queryable snapshot. Torn or
// corrupt files are rejected with ErrTornWrite / ErrCorrupt; the call
// never panics on hostile input.
func OpenSnapshotFileFloat64(path string, opts ...OpenOption) (*MappedFloat64, error) {
	c, so := resolveOpen(opts)
	file, err := snapstore.OpenFile(snapstore.OS, path, so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openMapped(file, float64Codec, sectionFloats, c.verify)
}

// OpenSnapshotFileUint64 is OpenSnapshotFileFloat64 for uint64 snapshots.
func OpenSnapshotFileUint64(path string, opts ...OpenOption) (*MappedUint64, error) {
	c, so := resolveOpen(opts)
	file, err := snapstore.OpenFile(snapstore.OS, path, so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openMapped(file, uint64Codec, sectionWords, c.verify)
}
