package snapstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Layout constants. The header occupies exactly one page; sections follow
// at 64-byte-aligned offsets; the footer is the last footerSize bytes.
const (
	headerSize = 4096
	footerSize = 64
	secAlign   = 64

	// appHdrCap is the fixed capacity reserved for the application header
	// inside the header page (the root package's serde common header plus
	// min/max and N0 is ~90 bytes; the slack is format headroom).
	appHdrCap = 512

	// formatVersion is the only version OpenFile reads; any other is
	// refused as unsupported.
	formatVersion = 2

	// NumSections is the number of data sections: the two parallel arrays
	// of a frozen coreset.
	NumSections = 2
)

// Section indices, in file order.
const (
	SecViewItems = iota
	SecViewCum
)

var (
	headerMagic = [8]byte{'R', 'E', 'Q', 'S', 'L', 'A', 'B', '1'}
	footerMagic = [8]byte{'R', 'E', 'Q', 'S', 'L', 'A', 'B', 'F'}
)

// Fixed header field offsets. The app header region is fixed-capacity so
// the section table lives at a constant offset.
const (
	offMagic    = 0
	offVersion  = 8  // uint32
	offSecCount = 12 // uint32
	offGen      = 16 // uint64
	offCount    = 24 // uint64 coreset entries ni
	offTotal    = 32 // uint64 application total (see Header.Total)
	offAppLen   = 40 // uint32
	offApp      = 48 // appHdrCap bytes
	offTable    = offApp + appHdrCap
	// Each table entry: off uint64, len uint64, crc uint32, pad uint32.
	tableEntrySize = 24
	offHeaderCRC   = offTable + NumSections*tableEntrySize // uint32
	headerUsed     = offHeaderCRC + 4
)

// Footer field offsets (relative to the footer's start).
const (
	fOffMagic   = 0
	fOffFileLen = 8  // uint64
	fOffGen     = 16 // uint64
	fOffCRC     = 24 // uint32, over footer bytes [0, fOffCRC)
	footerUsed  = fOffCRC + 4
)

// castagnoli is the CRC32C polynomial table; crc32 uses SSE4.2 on amd64,
// so checksumming runs at memory bandwidth.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// SectionInfo locates one data section inside the file.
type SectionInfo struct {
	Off uint64
	Len uint64
	CRC uint32
}

// Header is the parsed header page of a snapshot file.
type Header struct {
	Version uint32
	Gen     uint64
	Count   uint64 // coreset entries ni
	// Total is the application's 64-bit total: a snapshot's retained
	// weight (== its last cumulative weight, the stream length), or a
	// registry file's record-stream length.
	Total    uint64
	App      []byte // application header bytes (aliases the mapping)
	Sections [NumSections]SectionInfo
}

// Payload is what the caller persists: the application header, the total
// (see Header.Total) and the two section byte images (little-endian array
// contents). Both sections must be 8·Count bytes long (empty when Count is
// 0).
type Payload struct {
	App      []byte
	Count    uint64
	Total    uint64
	Sections [NumSections][]byte
}

// alignUp rounds n up to the next multiple of align (a power of two).
func alignUp(n uint64, align uint64) uint64 { return (n + align - 1) &^ (align - 1) }

// sectionLengthsOK checks the shape constraint shared by writer and opener.
func sectionLengthsOK(count uint64, lens [NumSections]uint64) error {
	for i, l := range lens {
		if l != 8*count {
			return fmt.Errorf("section %d length %d, want %d for %d entries", i, l, 8*count, count)
		}
	}
	return nil
}

// layoutSections computes each section's file offset and the file's total
// length (including footer) for the given section lengths.
func layoutSections(lens [NumSections]uint64) (offs [NumSections]uint64, fileLen uint64) {
	pos := uint64(headerSize)
	for i, l := range lens {
		offs[i] = pos
		pos = alignUp(pos+l, secAlign)
	}
	return offs, pos + footerSize
}

// encodeHeader builds the 4 KiB header page.
func encodeHeader(p *Payload, gen uint64, offs [NumSections]uint64) ([]byte, error) {
	if len(p.App) > appHdrCap {
		return nil, fmt.Errorf("snapstore: app header %d bytes exceeds capacity %d", len(p.App), appHdrCap)
	}
	var lens [NumSections]uint64
	for i := range p.Sections {
		lens[i] = uint64(len(p.Sections[i]))
	}
	if err := sectionLengthsOK(p.Count, lens); err != nil {
		return nil, fmt.Errorf("snapstore: %v", err)
	}
	h := make([]byte, headerSize)
	copy(h[offMagic:], headerMagic[:])
	le := binary.LittleEndian
	le.PutUint32(h[offVersion:], formatVersion)
	le.PutUint32(h[offSecCount:], NumSections)
	le.PutUint64(h[offGen:], gen)
	le.PutUint64(h[offCount:], p.Count)
	le.PutUint64(h[offTotal:], p.Total)
	le.PutUint32(h[offAppLen:], uint32(len(p.App)))
	copy(h[offApp:], p.App)
	for i := range p.Sections {
		e := h[offTable+i*tableEntrySize:]
		le.PutUint64(e, offs[i])
		le.PutUint64(e[8:], lens[i])
		le.PutUint32(e[16:], crc(p.Sections[i]))
	}
	le.PutUint32(h[offHeaderCRC:], crc(h[:offHeaderCRC]))
	return h, nil
}

// encodeFooter builds the footer block.
func encodeFooter(gen, fileLen uint64) []byte {
	f := make([]byte, footerSize)
	copy(f[fOffMagic:], footerMagic[:])
	le := binary.LittleEndian
	le.PutUint64(f[fOffFileLen:], fileLen)
	le.PutUint64(f[fOffGen:], gen)
	le.PutUint32(f[fOffCRC:], crc(f[:fOffCRC]))
	return f
}

// decodeFooter validates the footer block against the actual file size.
// Every failure is a torn write: the footer is the last thing written, so
// an inconsistent footer means the write sequence did not complete.
func decodeFooter(f []byte, size uint64) (gen uint64, err error) {
	if len(f) != footerSize {
		return 0, ErrTornWrite
	}
	if [8]byte(f[fOffMagic:fOffMagic+8]) != footerMagic {
		return 0, fmt.Errorf("%w: footer magic missing", ErrTornWrite)
	}
	le := binary.LittleEndian
	if le.Uint32(f[fOffCRC:]) != crc(f[:fOffCRC]) {
		return 0, fmt.Errorf("%w: footer checksum mismatch", ErrTornWrite)
	}
	if le.Uint64(f[fOffFileLen:]) != size {
		return 0, fmt.Errorf("%w: footer records %d bytes, file has %d", ErrTornWrite, le.Uint64(f[fOffFileLen:]), size)
	}
	return le.Uint64(f[fOffGen:]), nil
}

// decodeHeader parses and structurally validates the header page against
// the file size. It performs O(1) work: field decoding, the header CRC
// (fixed 4 KiB), and section-table geometry checks. Section content CRCs
// are the opener's choice (verifySections).
func decodeHeader(h []byte, size uint64) (*Header, error) {
	if len(h) != headerSize {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if [8]byte(h[offMagic:offMagic+8]) != headerMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	le := binary.LittleEndian
	// The version is checked before the header CRC: the CRC's offset
	// depends on the section count, which another version may lay out
	// differently, so an older file is refused for what it is.
	if v := le.Uint32(h[offVersion:]); v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if le.Uint32(h[offHeaderCRC:]) != crc(h[:offHeaderCRC]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	hdr := &Header{
		Version: formatVersion,
		Gen:     le.Uint64(h[offGen:]),
		Count:   le.Uint64(h[offCount:]),
		Total:   le.Uint64(h[offTotal:]),
	}
	if got := le.Uint32(h[offSecCount:]); got != NumSections {
		return nil, fmt.Errorf("%w: %d sections, want %d", ErrCorrupt, got, NumSections)
	}
	appLen := le.Uint32(h[offAppLen:])
	if appLen > appHdrCap {
		return nil, fmt.Errorf("%w: app header length %d exceeds capacity", ErrCorrupt, appLen)
	}
	hdr.App = h[offApp : offApp+int(appLen) : offApp+int(appLen)]
	var lens [NumSections]uint64
	prevEnd := uint64(headerSize)
	dataEnd := size - footerSize
	for i := range hdr.Sections {
		e := h[offTable+i*tableEntrySize:]
		s := SectionInfo{Off: le.Uint64(e), Len: le.Uint64(e[8:]), CRC: le.Uint32(e[16:])}
		// Sections are laid out in order, 8-byte aligned (the writer uses
		// 64), non-overlapping, and inside [header, footer). The arithmetic
		// is overflow-safe: every quantity is checked against dataEnd before
		// being trusted.
		if s.Off%8 != 0 || s.Off < prevEnd || s.Off > dataEnd || s.Len > dataEnd-s.Off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) outside data region", ErrCorrupt, i, s.Off, s.Off, s.Len)
		}
		prevEnd = s.Off + s.Len
		lens[i] = s.Len
		hdr.Sections[i] = s
	}
	if err := sectionLengthsOK(hdr.Count, lens); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return hdr, nil
}
