package req

import (
	"fmt"
	"slices"

	"req/internal/snapstore"
)

// Registry persistence: a whole registry saved as one snapstore
// generation, restored as a RegistrySnapshot.
//
// The slab format's two sections are shaped for a single frozen coreset,
// not a keyed sequence, so a registry file packs its blob differently:
// the 16-byte registry header (see registryserde.go) rides as the
// application header, the keyed records stream across the two sections
// in file order (each filled to the exact length the format demands for
// the chosen packing count, zero-padded at the tail), and the header's
// Total field records the true record-stream length. Everything else —
// generation rotation, write-temp → fsync → rename crash safety, CRC32C
// per section, torn-write detection, OpenLatest recovery — is inherited
// from snapstore unchanged. A registry file and a single-snapshot file
// are mutually rejecting: each decoder validates its own application-
// header magic ("RREG" vs "REQ1") before touching a section byte.
//
// Saving copies nothing: the blob's record bytes, zero-padded in the
// capacity encodeRegistry reserves, are the two sections.
//
// Restoring decodes the record stream (a keyed sequence of varint-weighted
// records cannot alias the mapping the way a single coreset's parallel
// arrays can), so OpenRegistry* is O(total retained items) — the
// zero-copy property belongs to the single-snapshot path. The decode
// (decodeRegistryRecords) lays every key out in shared arenas: one item
// array, one cumulative-weight array, one slice of core.Frozen, one of
// Snapshot and one string of every key, so a restore makes a constant
// handful of allocations beyond its key map's tables, about 35 for a
// whole OpenRegistryFloat64 at 256 keys. Every record is structurally
// validated during decode regardless of VerifyMode; the mode only tunes
// snapstore's section checksumming.

// packBytesPerCount is how many payload bytes one unit of packing count
// buys: each of the two sections carries 8 bytes per count.
const packBytesPerCount = 8 * snapstore.NumSections

// registryPayload packs a registry blob (header + records) into a slab
// payload: the packing count is the smallest C whose section capacity
// 16C holds the record stream. The sections alias the blob: the stream is
// zero-padded to 16C bytes in place, in the spare capacity encodeRegistry
// reserves for it (a blob without that room is regrown once), and cut in
// two. The blob belongs to the caller, who writes it and drops it.
func registryPayload(blob []byte) *snapstore.Payload {
	l := uint64(len(blob) - registryHeaderSize)
	p := &snapstore.Payload{App: blob[:registryHeaderSize], Total: l}
	if l == 0 {
		return p
	}
	c := (l + packBytesPerCount - 1) / packBytesPerCount
	p.Count = c
	padded := slices.Grow(blob, int(packBytesPerCount*c-l))[:registryHeaderSize+packBytesPerCount*c]
	clear(padded[len(blob):])
	records := padded[registryHeaderSize:]
	for i := range p.Sections {
		p.Sections[i] = records[8*c*uint64(i) : 8*c*uint64(i+1) : 8*c*uint64(i+1)]
	}
	return p
}

// registryRecords reassembles the record stream from an opened registry
// file's sections, rejecting a length field that exceeds the sections'
// actual capacity.
func registryRecords(file *snapstore.File) ([]byte, error) {
	l := file.Header.Total
	var total uint64
	for i := 0; i < snapstore.NumSections; i++ {
		total += uint64(len(file.Section(i)))
	}
	if l > total {
		return nil, fmt.Errorf("%w: %w: record stream length %d exceeds %d section bytes",
			ErrCorrupt, snapstore.ErrCorrupt, l, total)
	}
	records := make([]byte, 0, l)
	for i := 0; i < snapstore.NumSections && uint64(len(records)) < l; i++ {
		records = append(records, file.Section(i)...)
	}
	return records[:l], nil
}

// saveRegistryBlob packs and durably writes a registry blob as the next
// generation in dir.
func saveRegistryBlob(blob []byte, dir string) (uint64, error) {
	return snapstore.NewStore(snapstore.OS, dir).Save(registryPayload(blob))
}

// openRegistryFile bridges an opened slab file to a decoded registry
// snapshot collection. The file is fully consumed and closed before
// returning.
func openRegistryFile[K comparable, T any](
	file *snapstore.File,
	kc keyCodec[K], ic itemCodec[T],
) (*RegistrySnapshot[K, T], error) {
	defer file.Close()
	hdr := reader{buf: file.Header.App}
	keyCount, err := decodeRegistryHeader(&hdr, kc.tag, ic.tag)
	if err != nil {
		return nil, fmt.Errorf("%w: application header: %w", snapstore.ErrCorrupt, err)
	}
	if hdr.remaining() != 0 {
		return nil, fmt.Errorf("%w: %w: %d trailing application header bytes",
			ErrCorrupt, snapstore.ErrCorrupt, hdr.remaining())
	}
	records, err := registryRecords(file)
	if err != nil {
		return nil, err
	}
	r := reader{buf: records}
	m, err := decodeRegistryRecords(&r, keyCount, kc, ic)
	if err != nil {
		return nil, err
	}
	return &RegistrySnapshot[K, T]{m: m, gen: file.Header.Gen}, nil
}

// SaveRegistry captures every resident key's coreset and durably writes
// the collection as the next generation in the snapshot directory dir
// (created if missing), returning the generation number. The write is
// atomic under crashes exactly like Snapshot.SaveSnapshot: a reader sees
// either the previous generations or the new one, never a torn file. The
// capture is shard-by-shard consistent (each shard's keys freeze under
// that shard's lock); pause writers for a globally atomic cut. A registry
// MarshalBinary refuses is refused here too, and nothing is written.
func (r *Registry[K, T]) SaveRegistry(dir string) (uint64, error) {
	blob, err := r.MarshalBinary()
	if err != nil {
		return 0, err
	}
	return saveRegistryBlob(blob, dir)
}

// WriteRegistryFile durably writes the registry capture as a single
// standalone file at path, outside any generation rotation. Open it with
// OpenRegistryFileFloat64 or OpenRegistryFileUint64. A registry
// MarshalBinary refuses is refused here too, and nothing is written.
func (r *Registry[K, T]) WriteRegistryFile(path string) error {
	blob, err := r.MarshalBinary()
	if err != nil {
		return err
	}
	return snapstore.WriteSnapshotFile(snapstore.OS, path, 1, registryPayload(blob))
}

// OpenRegistryFloat64 opens the newest valid generation in the registry
// snapshot directory dir as an immutable keyed snapshot collection,
// skipping torn or corrupt generations (crash recovery). It returns
// ErrNoSnapshot when the directory holds no generations, and an error
// wrapping ErrCorrupt when generations exist but none validates.
func OpenRegistryFloat64(dir string, opts ...OpenOption) (*RegistrySnapshotFloat64, error) {
	_, so := resolveOpen(opts)
	file, err := snapstore.NewStore(snapstore.OS, dir).OpenLatest(so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openRegistryFile(file, stringKeyCodec, float64Codec)
}

// OpenRegistryUint64 is OpenRegistryFloat64 for uint64-keyed registries.
func OpenRegistryUint64(dir string, opts ...OpenOption) (*RegistrySnapshotUint64, error) {
	_, so := resolveOpen(opts)
	file, err := snapstore.NewStore(snapstore.OS, dir).OpenLatest(so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openRegistryFile(file, uint64KeyCodec, uint64Codec)
}

// OpenRegistryFileFloat64 opens one registry file (a generation file or a
// WriteRegistryFile product) as an immutable keyed snapshot collection.
// Torn or corrupt files are rejected with ErrTornWrite / ErrCorrupt; the
// call never panics on hostile input.
func OpenRegistryFileFloat64(path string, opts ...OpenOption) (*RegistrySnapshotFloat64, error) {
	_, so := resolveOpen(opts)
	file, err := snapstore.OpenFile(snapstore.OS, path, so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openRegistryFile(file, stringKeyCodec, float64Codec)
}

// OpenRegistryFileUint64 is OpenRegistryFileFloat64 for uint64-keyed
// registries.
func OpenRegistryFileUint64(path string, opts ...OpenOption) (*RegistrySnapshotUint64, error) {
	_, so := resolveOpen(opts)
	file, err := snapstore.OpenFile(snapstore.OS, path, so)
	if err != nil {
		return nil, wrapOpenErr(err)
	}
	return openRegistryFile(file, uint64KeyCodec, uint64Codec)
}
