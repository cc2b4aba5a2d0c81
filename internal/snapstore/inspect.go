package snapstore

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// SectionReport is the inspection result for one section.
type SectionReport struct {
	Off, Len uint64
	WantCRC  uint32
	GotCRC   uint32
	OK       bool
}

// Report is the result of Inspect: everything a diagnostic tool needs to
// print about one snapshot file, including per-section checksum status for
// files whose header parses but whose payload is damaged.
type Report struct {
	Size     uint64
	Header   Header
	Sections [NumSections]SectionReport
	// Err is the validation verdict: nil for a fully valid file, else the
	// first structural error (torn footer, bad header) — in which case the
	// Sections array is only populated when the header itself parsed.
	Err error
	// HeaderOK reports whether the header page parsed (Sections is
	// meaningful only when true).
	HeaderOK bool
}

// Inspect opens path without rejecting it and reports everything it can
// determine: structural validity, then per-section checksum status even
// when some sections are damaged (OpenFile stops at the first mismatch;
// Inspect checks both).
func Inspect(fsys FS, path string) (*Report, error) {
	rf, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	size, err := rf.Size()
	if err != nil {
		return nil, err
	}
	rep := &Report{Size: uint64(size)}
	if size < headerSize+footerSize {
		rep.Err = fmt.Errorf("%w: %d bytes is smaller than header+footer", ErrTornWrite, size)
		return rep, nil
	}
	buf := make([]byte, size)
	if _, err := rf.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	_, ferr := decodeFooter(buf[size-footerSize:], uint64(size))
	hdr, herr := decodeHeader(buf[:headerSize], uint64(size))
	if herr == nil {
		rep.Header = *hdr
		rep.HeaderOK = true
		for i, s := range hdr.Sections {
			got := crc(buf[s.Off : s.Off+s.Len])
			rep.Sections[i] = SectionReport{
				Off: s.Off, Len: s.Len,
				WantCRC: s.CRC, GotCRC: got, OK: got == s.CRC,
			}
		}
	}
	switch {
	case ferr != nil:
		rep.Err = ferr
	case herr != nil:
		rep.Err = herr
	default:
		for i := range rep.Sections {
			if !rep.Sections[i].OK {
				rep.Err = fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, i)
				break
			}
		}
	}
	return rep, nil
}

// sectionNames label the fixed section layout for human-facing output.
var sectionNames = [NumSections]string{"view.items", "view.cum"}

// String renders the report as a multi-line human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "size: %d bytes\n", r.Size)
	if !r.HeaderOK {
		fmt.Fprintf(&b, "header: UNREADABLE (%v)\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "format: v%d  generation: %d  items: %d  total: %d  app header: %d bytes\n",
		r.Header.Version, r.Header.Gen, r.Header.Count, r.Header.Total, len(r.Header.App))
	for i, s := range r.Sections {
		status := "ok"
		if !s.OK {
			status = fmt.Sprintf("CORRUPT (want %08x got %08x)", s.WantCRC, s.GotCRC)
		}
		fmt.Fprintf(&b, "section %d %-10s off=%-8d len=%-8d crc=%08x %s\n",
			i, sectionNames[i], s.Off, s.Len, s.WantCRC, status)
	}
	if r.Err != nil {
		if errors.Is(r.Err, ErrTornWrite) {
			fmt.Fprintf(&b, "verdict: TORN WRITE (%v)\n", r.Err)
		} else {
			fmt.Fprintf(&b, "verdict: CORRUPT (%v)\n", r.Err)
		}
	} else {
		fmt.Fprintf(&b, "verdict: valid\n")
	}
	return b.String()
}
