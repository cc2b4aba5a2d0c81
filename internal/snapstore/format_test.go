package snapstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// testPayload builds a deterministic payload with count coreset entries.
func testPayload(count uint64, seed byte) *Payload {
	p := &Payload{
		App:   []byte{seed, 0xAA, 0xBB, 0xCC},
		Count: count,
		Total: count * 7,
	}
	if count == 0 {
		return p
	}
	for i := range p.Sections {
		b := make([]byte, 8*count)
		for j := range b {
			b[j] = seed + byte(i) + byte(j)
		}
		p.Sections[i] = b
	}
	return p
}

// writeToMem writes payload p as gen into a fresh MemFS at path and returns
// both plus the raw file image.
func writeToMem(t *testing.T, p *Payload, gen uint64) (*MemFS, string, []byte) {
	t.Helper()
	m := NewMemFS()
	if err := m.MkdirAll("snaps"); err != nil {
		t.Fatal(err)
	}
	path := "snaps/" + GenName(gen)
	if err := WriteSnapshotFile(m, path, gen, p); err != nil {
		t.Fatal(err)
	}
	rf, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	size, _ := rf.Size()
	img := make([]byte, size)
	if _, err := rf.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return m, path, img
}

func assertFileMatches(t *testing.T, f *File, p *Payload, wantGen uint64) {
	t.Helper()
	if f.Header.Gen != wantGen {
		t.Fatalf("gen = %d, want %d", f.Header.Gen, wantGen)
	}
	if f.Header.Count != p.Count || f.Header.Total != p.Total {
		t.Fatalf("count/total = %d/%d, want %d/%d",
			f.Header.Count, f.Header.Total, p.Count, p.Total)
	}
	if !bytes.Equal(f.Header.App, p.App) {
		t.Fatalf("app header mismatch")
	}
	for i := range p.Sections {
		if !bytes.Equal(f.Section(i), p.Sections[i]) {
			t.Fatalf("section %d content mismatch", i)
		}
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	for _, count := range []uint64{0, 1, 2, 7, 64, 1000} {
		p := testPayload(count, byte(count))
		m, path, _ := writeToMem(t, p, count+1)
		f, err := OpenFile(m, path, OpenOptions{})
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		assertFileMatches(t, f, p, count+1)
		if f.Mapped() {
			t.Fatalf("MemFS file claims to be mapped")
		}
		f.Close()
	}
}

func TestOpenSkipChecksum(t *testing.T) {
	p := testPayload(16, 3)
	m, path, _ := writeToMem(t, p, 9)
	f, err := OpenFile(m, path, OpenOptions{SkipChecksum: true})
	if err != nil {
		t.Fatal(err)
	}
	assertFileMatches(t, f, p, 9)
	f.Close()
}

func TestSectionAlignment(t *testing.T) {
	p := testPayload(5, 1)
	m, path, _ := writeToMem(t, p, 1)
	f, err := OpenFile(m, path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, s := range f.Header.Sections {
		if s.Off%secAlign != 0 {
			t.Fatalf("section %d offset %d not %d-aligned", i, s.Off, secAlign)
		}
		// Words must not panic and must see the same bytes.
		w := Words(f.Section(i))
		if len(w) != len(f.Section(i))/8 {
			t.Fatalf("section %d: %d words for %d bytes", i, len(w), len(f.Section(i)))
		}
	}
}

// TestTruncationEveryByte is the torn-write sweep: every proper prefix of a
// valid file must be rejected — as ErrTornWrite or ErrCorrupt, never a
// panic, never success.
func TestTruncationEveryByte(t *testing.T) {
	p := testPayload(6, 2)
	_, _, img := writeToMem(t, p, 4)
	for cut := 0; cut < len(img); cut++ {
		m := NewMemFS()
		m.MkdirAll("d")
		w, err := m.Create("d/t")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(img[:cut])
		w.Close()
		f, err := OpenFile(m, "d/t", OpenOptions{})
		if err == nil {
			f.Close()
			t.Fatalf("truncation at %d/%d accepted", cut, len(img))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// TestBitFlipEveryByte corrupts each byte of a valid file in turn; the
// default (checksumming) open must reject every flip.
func TestBitFlipEveryByte(t *testing.T) {
	p := testPayload(6, 5)
	_, _, img := writeToMem(t, p, 2)
	for pos := 0; pos < len(img); pos++ {
		// Padding gap bytes are not covered by any checksum; flips there are
		// semantically invisible and acceptance is fine.
		if inPaddingGap(t, img, pos) {
			continue
		}
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0x40
		m := NewMemFS()
		m.MkdirAll("d")
		w, _ := m.Create("d/t")
		w.Write(bad)
		w.Close()
		f, err := OpenFile(m, "d/t", OpenOptions{})
		if err == nil {
			f.Close()
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

// inPaddingGap reports whether pos falls in an alignment gap between
// sections (or in the unused tail of the header page), where no checksum
// covers the bytes.
func inPaddingGap(t *testing.T, img []byte, pos int) bool {
	t.Helper()
	hdr, err := decodeHeader(img[:headerSize], uint64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if pos < headerSize {
		return pos >= headerUsed // header page tail beyond the CRC'd region
	}
	if pos >= len(img)-footerSize {
		return pos >= len(img)-footerSize+footerUsed
	}
	for _, s := range hdr.Sections {
		if uint64(pos) >= s.Off && uint64(pos) < s.Off+s.Len {
			return false
		}
	}
	return true
}

func TestGenMismatchRejected(t *testing.T) {
	p := testPayload(3, 1)
	_, _, img := writeToMem(t, p, 7)
	// Rebuild the footer with a different generation but a valid footer CRC:
	// header/footer generation cross-check must fire.
	bad := append([]byte(nil), img...)
	copy(bad[len(bad)-footerSize:], encodeFooter(8, uint64(len(bad))))
	m := NewMemFS()
	m.MkdirAll("d")
	w, _ := m.Create("d/t")
	w.Write(bad)
	w.Close()
	_, err := OpenFile(m, "d/t", OpenOptions{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestErrTornWriteWrapsErrCorrupt(t *testing.T) {
	if !errors.Is(ErrTornWrite, ErrCorrupt) {
		t.Fatal("ErrTornWrite must wrap ErrCorrupt")
	}
}

func TestBadPayloadShapes(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")
	// App header too large.
	big := testPayload(1, 1)
	big.App = make([]byte, appHdrCap+1)
	if err := WriteSnapshotFile(m, "d/a", 1, big); err == nil {
		t.Fatal("oversized app header accepted")
	}
	// Section length inconsistent with count.
	bad := testPayload(4, 1)
	bad.Sections[SecViewCum] = bad.Sections[SecViewCum][:16]
	if err := WriteSnapshotFile(m, "d/b", 1, bad); err == nil {
		t.Fatal("malformed section lengths accepted")
	}
	// Writer failures must not leave files behind under the final name.
	if _, err := m.Open("d/a"); err == nil {
		t.Fatal("failed write left final file")
	}
}

func TestGenNameRoundTrip(t *testing.T) {
	for _, gen := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		name := GenName(gen)
		got, ok := ParseGenName(name)
		if !ok || got != gen {
			t.Fatalf("ParseGenName(%q) = %d, %v", name, got, ok)
		}
	}
	for _, bad := range []string{
		"", "snap-.reqsnap", "snap-12.reqsnap", "snap-00000000000000000001.tmp",
		"snap-00000000000000000001.reqsnap.tmp", "x-00000000000000000001.reqsnap",
		"snap-0000000000000000000x.reqsnap",
	} {
		if _, ok := ParseGenName(bad); ok {
			t.Fatalf("ParseGenName(%q) accepted", bad)
		}
	}
}

func TestInspect(t *testing.T) {
	p := testPayload(8, 9)
	m, path, img := writeToMem(t, p, 3)
	rep, err := Inspect(m, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil || !rep.HeaderOK {
		t.Fatalf("valid file reported: %v", rep.Err)
	}
	if rep.Header.Gen != 3 || rep.Header.Count != 8 {
		t.Fatalf("header fields wrong: %+v", rep.Header)
	}
	for i, s := range rep.Sections {
		if !s.OK {
			t.Fatalf("section %d reported corrupt", i)
		}
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}

	// Damage one section: Inspect still parses the header and pinpoints it.
	bad := append([]byte(nil), img...)
	hdr, _ := decodeHeader(img[:headerSize], uint64(len(img)))
	bad[hdr.Sections[SecViewCum].Off] ^= 0xFF
	w, _ := m.Create("snaps/bad")
	w.Write(bad)
	w.Close()
	rep, err = Inspect(m, "snaps/bad")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil || !errors.Is(rep.Err, ErrCorrupt) {
		t.Fatalf("damaged file verdict: %v", rep.Err)
	}
	if rep.Sections[SecViewCum].OK {
		t.Fatal("damaged section reported ok")
	}
	for i, s := range rep.Sections {
		if i != SecViewCum && !s.OK && hdr.Sections[i].Len > 0 {
			t.Fatalf("undamaged section %d reported corrupt", i)
		}
	}

	// Truncated file: report carries a torn-write verdict, no panic.
	w, _ = m.Create("snaps/torn")
	w.Write(img[:headerSize/2])
	w.Close()
	rep, err = Inspect(m, "snaps/torn")
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Err, ErrTornWrite) {
		t.Fatalf("truncated file verdict: %v", rep.Err)
	}
	_ = fmt.Sprintf("%s", rep)
}

// version1Image builds a complete, self-consistent file in the version-1
// layout: five sections (the sorted view plus a three-array rank index of
// count+1 entries each), the header CRC at that layout's offset, and a
// valid footer. It is what a version-1 writer produced.
func version1Image(count, gen uint64) []byte {
	const v1Sections = 5
	lens := [v1Sections]uint64{8 * count, 8 * count, 8 * (count + 1), 8 * (count + 1), 8 * (count + 1)}
	le := binary.LittleEndian
	h := make([]byte, headerSize)
	copy(h[offMagic:], headerMagic[:])
	le.PutUint32(h[offVersion:], 1)
	le.PutUint32(h[offSecCount:], v1Sections)
	le.PutUint64(h[offGen:], gen)
	le.PutUint64(h[offCount:], count)
	le.PutUint64(h[offTotal:], count)
	var body []byte
	pos := uint64(headerSize)
	for i, l := range lens {
		sec := bytes.Repeat([]byte{byte(i + 1)}, int(l))
		e := h[offTable+i*tableEntrySize:]
		le.PutUint64(e, pos)
		le.PutUint64(e[8:], l)
		le.PutUint32(e[16:], crc(sec))
		body = append(body, sec...)
		pos = alignUp(pos+l, secAlign)
		body = append(body, make([]byte, pos-headerSize-uint64(len(body)))...)
	}
	v1CRC := offTable + v1Sections*tableEntrySize
	le.PutUint32(h[v1CRC:], crc(h[:v1CRC]))
	img := append(h, body...)
	return append(img, encodeFooter(gen, uint64(len(img))+footerSize)...)
}

// TestVersion1Refused pins that a version-1 file is refused as an
// unsupported version, wrapped in ErrCorrupt, instead of being misread as
// a two-section file, and that OpenLatest skips it for an older valid
// generation.
func TestVersion1Refused(t *testing.T) {
	img := version1Image(6, 2)
	m := NewMemFS()
	if err := m.MkdirAll("snaps"); err != nil {
		t.Fatal(err)
	}
	p := testPayload(4, 3)
	if err := WriteSnapshotFile(m, "snaps/"+GenName(1), 1, p); err != nil {
		t.Fatal(err)
	}
	w, err := m.Create("snaps/" + GenName(2))
	if err != nil {
		t.Fatal(err)
	}
	w.Write(img)
	w.Close()

	for _, opt := range []OpenOptions{{}, {SkipChecksum: true}} {
		f, err := OpenFile(m, "snaps/"+GenName(2), opt)
		if err == nil {
			f.Close()
			t.Fatalf("%+v: version-1 file accepted", opt)
		}
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTornWrite) ||
			!strings.Contains(err.Error(), "unsupported version 1") {
			t.Fatalf("%+v: version-1 file rejected as %v, want an unsupported-version ErrCorrupt", opt, err)
		}
	}
	rep, err := Inspect(m, "snaps/"+GenName(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HeaderOK || !strings.Contains(fmt.Sprint(rep.Err), "unsupported version 1") {
		t.Fatalf("Inspect of a version-1 file: header ok %v, verdict %v", rep.HeaderOK, rep.Err)
	}
	f, err := NewStore(m, "snaps").OpenLatest(OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	assertFileMatches(t, f, p, 1)
}
