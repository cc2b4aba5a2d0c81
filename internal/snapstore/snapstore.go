// Package snapstore implements crash-safe, zero-copy snapshot persistence:
// a versioned, checksummed, page/slab-aligned on-disk format that the
// frozen-coreset query engine can serve directly from a read-only mmap'd
// region, plus a generation-numbered directory store with atomic rotation
// and a recovery scan.
//
// # File format
//
// One snapshot file is a 4 KiB header page, two 64-byte-aligned data
// sections, and a fixed-size footer at end of file (all integers
// little-endian):
//
//	┌────────────────────────────────────────────────────────────┐
//	│ header page (4096 B)                                       │
//	│   magic "REQSLAB1", version (2), section count (2)         │
//	│   generation, coreset count ni, total                      │
//	│   app header (opaque to this package: the root package     │
//	│   stores its serde common header + min/max here)           │
//	│   section table: {offset, length, CRC32C} × 2              │
//	│   header CRC32C (over every header byte above)             │
//	├────────────────────────────────────────────────────────────┤
//	│ section 0  view items   ni × 8 B  ─ 64-B aligned           │
//	│ section 1  view cum     ni × 8 B  ─ 64-B aligned           │
//	├────────────────────────────────────────────────────────────┤
//	│ footer (64 B): magic "REQSLABF", file length, generation,  │
//	│ footer CRC32C                                              │
//	└────────────────────────────────────────────────────────────┘
//
// The total is the application's: the root package records a snapshot's
// retained weight there, or a registry file's record-stream length. A
// file of any other version is refused as an unsupported version.
//
// The sections are the frozen coreset's two storage arrays byte-for-byte
// (on little-endian hosts): opening a file needs no per-item decode — the
// arrays are aliased straight out of the mapping. The 64-byte alignment
// guarantees the 8-byte alignment the aliasing requires and keeps each
// array cache-line aligned; the header page boundary keeps metadata and
// data on separate pages. The mapping is read-only: an accidental write
// through an aliased slice faults instead of corrupting the file.
//
// # Torn-write detection and checksums
//
// The footer is written last, so its presence (magic + file length + CRC
// matching the actual size) proves the write sequence completed: any
// truncation — power cut mid-write, short write, partial sync — leaves the
// footer missing, misplaced, or mismatched, and Open reports ErrTornWrite
// in O(1). Content integrity is separate: the header carries a CRC32C of
// itself and one per section, verified (by default) on open; a bit flip
// anywhere surfaces as ErrCorrupt, never as a wrong answer.
//
// # Atomic generation rotation
//
// A Store writes each snapshot as a new generation: write to a temp name,
// fsync the file, rename to the final generation name, fsync the
// directory. A crash at ANY byte of that sequence leaves either the
// previous generations untouched (temp files are ignored and eventually
// pruned) or the new generation complete — never a half-visible file.
// OpenLatest scans generations newest-first and serves the newest one that
// passes verification, discarding torn or corrupt files, so recovery
// after any crash yields the previous or the new snapshot, never an error
// on a directory that holds at least one valid generation.
//
// All file access goes through the FS interface, so this package's
// fault-injection crash matrix can run the store over the test-only MemFS
// and FaultFS (memfs_test.go).
package snapstore

import (
	"errors"
	"fmt"
)

// Sentinel errors. ErrTornWrite wraps ErrCorrupt: a torn file IS corrupt,
// just with a sharper diagnosis, so errors.Is(err, ErrCorrupt) matches
// every rejection while errors.Is(err, ErrTornWrite) isolates truncation.
var (
	// ErrCorrupt is returned when a snapshot file fails structural or
	// checksum validation.
	ErrCorrupt = errors.New("snapstore: corrupt snapshot file")

	// ErrTornWrite is returned when a snapshot file's footer is missing or
	// inconsistent with its size — the signature of an interrupted write.
	ErrTornWrite = fmt.Errorf("%w (torn write: file incomplete or truncated)", ErrCorrupt)

	// ErrNoSnapshot is returned by OpenLatest when the directory holds no
	// snapshot generations at all.
	ErrNoSnapshot = errors.New("snapstore: no snapshot generation found")
)
