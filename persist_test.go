package req

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"req/internal/core"
	"req/internal/snapstore"
)

// persistScenarios are the sketch shapes the equivalence tests sweep:
// empty, tiny, compacted, merged, HRA, known-N growth, fixed-K.
func persistScenarios(t testing.TB) map[string]*Float64 {
	t.Helper()
	mk := func(opts ...Option) *Float64 {
		s, err := NewFloat64(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	feed := func(s *Float64, n int, stride int) *Float64 {
		for i := 0; i < n; i++ {
			s.Update(float64((i*stride)%7919) / 3.0)
		}
		return s
	}
	empty := mk(WithEpsilon(0.05))
	one := feed(mk(WithEpsilon(0.05)), 1, 1)
	small := feed(mk(WithEpsilon(0.05), WithSeed(7)), 100, 3)
	big := feed(mk(WithEpsilon(0.02), WithSeed(11)), 60000, 7)
	hra := feed(mk(WithEpsilon(0.03), WithHighRankAccuracy(), WithSeed(3)), 40000, 5)
	grown := feed(mk(WithEpsilon(0.04), WithKnownN(1000), WithSeed(5)), 30000, 11)
	fixedK := feed(mk(WithK(64), WithSeed(13)), 20000, 13)
	merged := feed(mk(WithEpsilon(0.02), WithSeed(17)), 10000, 3)
	other := feed(mk(WithEpsilon(0.02), WithSeed(19)), 15000, 9)
	if err := merged.Merge(other); err != nil {
		t.Fatal(err)
	}
	return map[string]*Float64{
		"empty": empty, "one": one, "small": small, "big": big,
		"hra": hra, "grown": grown, "fixedK": fixedK, "merged": merged,
	}
}

// assertSameAnswers checks that two readers answer bit-identically across
// the full query surface.
func assertSameAnswers(t *testing.T, want, got *SnapshotFloat64) {
	t.Helper()
	if want.Count() != got.Count() || want.ItemsRetained() != got.ItemsRetained() {
		t.Fatalf("count/retained: %d/%d vs %d/%d",
			want.Count(), want.ItemsRetained(), got.Count(), got.ItemsRetained())
	}
	wmn, wok := want.Min()
	gmn, gok := got.Min()
	if wok != gok || wmn != gmn {
		t.Fatalf("min: %v,%v vs %v,%v", wmn, wok, gmn, gok)
	}
	wmx, _ := want.Max()
	gmx, _ := got.Max()
	if wmx != gmx {
		t.Fatalf("max: %v vs %v", wmx, gmx)
	}
	if want.Empty() {
		return
	}
	for _, phi := range []float64{0, 0.001, 0.25, 0.5, 0.75, 0.99, 1} {
		wq, werr := want.Quantile(phi)
		gq, gerr := got.Quantile(phi)
		if (werr == nil) != (gerr == nil) || wq != gq {
			t.Fatalf("quantile(%v): %v,%v vs %v,%v", phi, wq, werr, gq, gerr)
		}
	}
	for y := 0.0; y < 2700; y += 33.7 {
		if want.Rank(y) != got.Rank(y) {
			t.Fatalf("rank(%v): %d vs %d", y, want.Rank(y), got.Rank(y))
		}
		if want.RankExclusive(y) != got.RankExclusive(y) {
			t.Fatalf("rankExclusive(%v) differs", y)
		}
	}
	// The coresets themselves must be identical, not just the answers.
	wi, gi := 0, 0
	for item, weight := range want.All() {
		_ = item
		_ = weight
		wi++
	}
	for item, weight := range got.All() {
		_ = item
		_ = weight
		gi++
	}
	if wi != gi {
		t.Fatalf("coreset sizes differ: %d vs %d", wi, gi)
	}
	// Bit-identical serialization is the strongest equivalence: the mapped
	// snapshot re-encodes to exactly the bytes the live one does.
	wb, werr := want.MarshalBinary()
	gb, gerr := got.MarshalBinary()
	if werr != nil || gerr != nil {
		t.Fatalf("marshal: %v / %v", werr, gerr)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("mapped snapshot serializes differently from the live snapshot")
	}
}

// TestMappedEquivalence: for every scenario, a snapshot saved and reopened
// from disk (mmap and portable paths, all verify modes) answers
// bit-identically to the live snapshot.
func TestMappedEquivalence(t *testing.T) {
	for name, s := range persistScenarios(t) {
		t.Run(name, func(t *testing.T) {
			live := s.Snapshot()
			dir := t.TempDir() + "/snaps"
			gen, err := s.SaveSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			if gen != 1 {
				t.Fatalf("first generation = %d", gen)
			}
			for _, tc := range []struct {
				name string
				opts []OpenOption
			}{
				{"mmap-checksum", nil},
				{"mmap-full", []OpenOption{WithVerify(VerifyFull)}},
				{"mmap-none", []OpenOption{WithVerify(VerifyNone)}},
				{"nommap-checksum", []OpenOption{WithoutMmap()}},
				{"nommap-full", []OpenOption{WithoutMmap(), WithVerify(VerifyFull)}},
			} {
				m, err := OpenSnapshotFloat64(dir, tc.opts...)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if m.Generation() != 1 {
					t.Fatalf("%s: generation %d", tc.name, m.Generation())
				}
				assertSameAnswers(t, live, &m.Snapshot)
				if err := m.Close(); err != nil {
					t.Fatalf("%s: close: %v", tc.name, err)
				}
			}
		})
	}
}

// TestMappedEquivalenceUint64 covers the uint64 instantiation end to end.
func TestMappedEquivalenceUint64(t *testing.T) {
	s, err := NewUint64(WithEpsilon(0.03), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50000; i++ {
		s.Update(i * 2654435761 % 100003)
	}
	live := s.Snapshot()
	dir := t.TempDir() + "/snaps"
	if _, err := s.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshotUint64(dir, WithVerify(VerifyFull))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if live.Count() != m.Count() {
		t.Fatalf("count %d vs %d", live.Count(), m.Count())
	}
	for y := uint64(0); y < 100003; y += 997 {
		if live.Rank(y) != m.Rank(y) {
			t.Fatalf("rank(%d) differs", y)
		}
	}
	lb, _ := live.MarshalBinary()
	mb, _ := m.MarshalBinary()
	if !bytes.Equal(lb, mb) {
		t.Fatal("uint64 mapped snapshot serializes differently")
	}
}

// TestGenerationRotation: repeated saves rotate generations; opening
// always serves the newest; old generations are pruned to the keep limit.
func TestGenerationRotation(t *testing.T) {
	s, err := NewFloat64(WithEpsilon(0.05), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snaps"
	var lastCount uint64
	for round := 1; round <= 5; round++ {
		for i := 0; i < 1000; i++ {
			s.Update(float64(round*1000 + i))
		}
		gen, err := s.SaveSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(round) {
			t.Fatalf("round %d wrote generation %d", round, gen)
		}
		lastCount = s.Count()
	}
	m, err := OpenSnapshotFloat64(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation() != 5 || m.Count() != lastCount {
		t.Fatalf("opened generation %d with count %d, want 5 with %d",
			m.Generation(), m.Count(), lastCount)
	}
	m.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d files retained, want 2 (keep limit)", len(entries))
	}
}

// TestRecoveryFromDamagedNewest: damaging the newest generation on disk
// must make OpenSnapshot serve the previous one.
func TestRecoveryFromDamagedNewest(t *testing.T) {
	s, err := NewFloat64(WithEpsilon(0.05), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snaps"
	for i := 0; i < 500; i++ {
		s.Update(float64(i))
	}
	if _, err := s.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	countAtGen1 := s.Count()
	for i := 0; i < 500; i++ {
		s.Update(float64(i))
	}
	if _, err := s.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	// Truncate generation 2: a torn write that reached the final name.
	path2 := filepath.Join(dir, snapstore.GenName(2))
	img, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path2, img[:len(img)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := OpenSnapshotFloat64(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer m.Close()
	if m.Generation() != 1 || m.Count() != countAtGen1 {
		t.Fatalf("recovered generation %d count %d, want 1 with %d",
			m.Generation(), m.Count(), countAtGen1)
	}

	// The damaged file itself reports a torn write through the req error
	// space: both ErrTornWrite and ErrCorrupt.
	_, err = OpenSnapshotFileFloat64(path2)
	if !errors.Is(err, ErrTornWrite) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file error %v must wrap ErrTornWrite and ErrCorrupt", err)
	}
}

// TestOpenErrors pins the error taxonomy for missing and mismatched input.
func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenSnapshotFloat64(dir + "/nothing"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing dir: %v, want ErrNoSnapshot", err)
	}
	if _, err := OpenSnapshotFloat64(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}

	// Cross-kind open: a float64 snapshot through the uint64 opener.
	s, err := NewFloat64(WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	s.Update(1)
	path := dir + "/f64.reqsnap"
	if err := s.Snapshot().WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotFileUint64(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cross-kind open: %v, want ErrCorrupt", err)
	}
	// Right-kind open of the standalone file works.
	m, err := OpenSnapshotFileFloat64(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 1 {
		t.Fatalf("count %d", m.Count())
	}
	m.Close()
}

// TestVerifyFullCatchesHostileStructure: a file whose checksums are valid
// but whose arrays are structurally hostile (its writer lied) passes the
// default open but must be rejected by VerifyFull — and even when it is
// opened, queries must not panic.
func TestVerifyFullCatchesHostileStructure(t *testing.T) {
	s, err := NewFloat64(WithEpsilon(0.05), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		s.Update(float64(i))
	}
	sn := s.Snapshot()
	p := snapshotPayload(sn, float64Codec)

	// Swap two interior view items: still within [min, max], so the O(1)
	// open checks cannot see it, and the CRCs are recomputed at write.
	sec := append([]byte(nil), p.Sections[snapstore.SecViewItems]...)
	a := sec[80:88]
	b := sec[160:168]
	var tmp [8]byte
	copy(tmp[:], a)
	copy(a, b)
	copy(b, tmp[:])
	p.Sections[snapstore.SecViewItems] = sec

	path := t.TempDir() + "/hostile.reqsnap"
	if err := snapstore.WriteSnapshotFile(snapstore.OS, path, 1, p); err != nil {
		t.Fatal(err)
	}

	// Checksum-level open accepts (the file is exactly what its writer
	// wrote) and queries stay memory-safe.
	m, err := OpenSnapshotFileFloat64(path)
	if err != nil {
		t.Fatalf("checksum open rejected honest-checksum file: %v", err)
	}
	_ = m.Rank(2500)
	_, _ = m.Quantile(0.5)
	m.Close()

	// VerifyFull must reject it.
	_, err = OpenSnapshotFileFloat64(path, WithVerify(VerifyFull))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyFull: %v, want ErrCorrupt", err)
	}
}

// TestMappedSnapshotZeroCopy asserts the zero-deserialization claim: on a
// platform with mmap and native little-endian order, the mapped snapshot's
// arrays alias the file mapping itself (no heap copy of any section).
func TestMappedSnapshotZeroCopy(t *testing.T) {
	if !snapstore.AliasingOK() {
		t.Skip("big-endian host: open decodes instead of aliasing")
	}
	s, err := NewFloat64(WithEpsilon(0.02), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		s.Update(float64(i))
	}
	dir := t.TempDir() + "/snaps"
	if _, err := s.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshotFloat64(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Skip("platform without mmap support")
	}

	// Steady-state queries on the mapped snapshot allocate nothing.
	var sink uint64
	if n := testing.AllocsPerRun(200, func() {
		sink += m.Rank(25000.5)
		mn, _ := m.Min()
		sink += uint64(mn)
	}); n != 0 {
		t.Fatalf("mapped snapshot query allocates %v per op", n)
	}
	_ = sink
}

// TestOpenAllocsIndependentOfSize asserts O(1)-open: the allocation count
// of open+close does not grow with snapshot size (no per-item work).
func TestOpenAllocsIndependentOfSize(t *testing.T) {
	if !snapstore.AliasingOK() {
		t.Skip("big-endian host decodes sections at open")
	}
	openAllocs := func(n int) float64 {
		s, err := NewFloat64(WithEpsilon(0.02), WithSeed(8))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s.Update(float64(i))
		}
		dir := t.TempDir() + "/snaps"
		if _, err := s.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			m, err := OpenSnapshotFloat64(dir, WithVerify(VerifyNone))
			if err != nil {
				t.Fatal(err)
			}
			m.Close()
		})
	}
	small := openAllocs(100)
	large := openAllocs(200000)
	if large > small+2 {
		t.Fatalf("open allocations grow with size: %v (100 items) vs %v (200k items)", small, large)
	}
}

// registryMapSink keeps TestRegistryDecodeAllocsIndependentOfKeys' bare
// map allocations on the heap.
var registryMapSink map[string]*Snapshot[float64]

// TestRegistryDecodeAllocsIndependentOfKeys asserts that a registry
// restore allocates a constant handful of blocks — the shared arenas, the
// key string, the file's bookkeeping — not a few per key:
// UnmarshalRegistryFloat64, UnmarshalRegistryUint64 and
// OpenRegistryFloat64 at 256 and at 4,096 keys. The key map is the one
// part that grows (a table per 1,024 slots), so the allowance is what a
// bare map of each size allocates plus slack for the sync.Pool refills a
// collection during the run may cause.
func TestRegistryDecodeAllocsIndependentOfKeys(t *testing.T) {
	const slack = 16
	mapAllocs := func(keys int) float64 {
		return testing.AllocsPerRun(5, func() {
			registryMapSink = make(map[string]*Snapshot[float64], keys)
		})
	}
	allowed := mapAllocs(4096) - mapAllocs(256) + slack
	blobs := func(keys int) (f64, u64 []byte) {
		rf, err := NewRegistryFloat64(WithK(8), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		ru, err := NewRegistryUint64(WithK(8), WithSeed(12))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			for j := 0; j <= i%40; j++ {
				rf.Update(fmt.Sprintf("key-%d", i), float64(i*j))
				ru.Update(uint64(i), uint64(i*j))
			}
		}
		if f64, err = rf.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if u64, err = ru.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		return f64, u64
	}
	allocs := func(keys int) (f64, u64, open float64) {
		bf, bu := blobs(keys)
		dir := t.TempDir()
		if _, err := saveRegistryBlob(append([]byte(nil), bf...), dir); err != nil {
			t.Fatal(err)
		}
		f64 = testing.AllocsPerRun(5, func() {
			if rs, err := UnmarshalRegistryFloat64(bf); err != nil || rs.Len() != keys {
				t.Fatalf("float64 decode: %v", err)
			}
		})
		u64 = testing.AllocsPerRun(5, func() {
			if rs, err := UnmarshalRegistryUint64(bu); err != nil || rs.Len() != keys {
				t.Fatalf("uint64 decode: %v", err)
			}
		})
		open = testing.AllocsPerRun(5, func() {
			if rs, err := OpenRegistryFloat64(dir); err != nil || rs.Len() != keys {
				t.Fatalf("open: %v", err)
			}
		})
		return f64, u64, open
	}
	sf, su, so := allocs(256)
	lf, lu, lo := allocs(4096)
	t.Logf("allocs at 256 / 4096 keys: float64 %v / %v, uint64 %v / %v, open %v / %v; growth allowed %v", sf, lf, su, lu, so, lo, allowed)
	for _, c := range []struct {
		name         string
		small, large float64
	}{{"UnmarshalRegistryFloat64", sf, lf}, {"UnmarshalRegistryUint64", su, lu}, {"OpenRegistryFloat64", so, lo}} {
		if c.large > c.small+allowed {
			t.Errorf("%s allocations grow with the key count: %v at 256 keys, %v at 4,096", c.name, c.small, c.large)
		}
	}
}

// TestMappedSurvivesPruning: a snapshot mapped from a generation that is
// later pruned keeps answering (the inode outlives the unlink).
func TestMappedSurvivesPruning(t *testing.T) {
	s, err := NewFloat64(WithEpsilon(0.05), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snaps"
	for i := 0; i < 1000; i++ {
		s.Update(float64(i))
	}
	if _, err := s.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshotFloat64(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := m.Rank(500)

	// Three more saves prune generation 1 off the directory.
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			s.Update(float64(i))
		}
		if _, err := s.SaveSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapstore.GenName(1))); !os.IsNotExist(err) {
		t.Fatal("generation 1 still on disk; prune did not run")
	}
	if got := m.Rank(500); got != before {
		t.Fatalf("mapped snapshot changed answers after pruning: %d vs %d", got, before)
	}
}

// TestHostileGeometryRejected pins the satellite hardening: decoder inputs
// whose config demands absurd geometry (huge khat, huge K, NaN eps) must
// be rejected with ErrCorrupt before any large allocation, not panic or
// OOM. These were real failure modes: khat flows through geometryFor into
// a float→int conversion and a capacity product.
func TestHostileGeometryRejected(t *testing.T) {
	valid, err := NewFloat64(WithEpsilon(0.1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		valid.Update(float64(i))
	}
	blob, err := valid.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Header layout: magic 4, version/itype/mode/sched/flags 5, eps 8,
	// delta 8, khat 8, K 4.
	const (
		offEps  = 9
		offKHat = 25
		offK    = 33
	)
	put64 := func(b []byte, off int, v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[off+i] = byte(bits >> (8 * i))
		}
	}
	for name, mutate := range map[string]func([]byte){
		"khat-1e15": func(b []byte) { put64(b, offKHat, 1e15) },
		"khat-inf":  func(b []byte) { put64(b, offKHat, math.Inf(1)) },
		"khat-nan":  func(b []byte) { put64(b, offKHat, math.NaN()) },
		"khat-neg":  func(b []byte) { put64(b, offKHat, -1e9) },
		"eps-nan":   func(b []byte) { put64(b, offEps, math.NaN()) },
		"eps-tiny":  func(b []byte) { put64(b, offEps, 1e-300) },
		"delta-nan": func(b []byte) { put64(b, offEps+8, math.NaN()) },
		"khat-1e13": func(b []byte) { put64(b, offKHat, 1e13) },
	} {
		t.Run(name, func(t *testing.T) {
			mut := append([]byte(nil), blob...)
			mutate(mut)
			if _, err := DecodeFloat64(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("hostile header accepted or mis-classified: %v", err)
			}
		})
	}

	// K is only meaningful in fixed-K mode; an absurd K there must be
	// rejected before it reaches the capacity product.
	t.Run("k-max-fixed", func(t *testing.T) {
		fk, err := NewFloat64(WithK(64), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			fk.Update(float64(i))
		}
		fkBlob, err := fk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), fkBlob...)
		mut[offK], mut[offK+1], mut[offK+2], mut[offK+3] = 0xFF, 0xFF, 0xFF, 0x7F
		if _, err := DecodeFloat64(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("hostile K accepted or mis-classified: %v", err)
		}
	})
}

// FuzzOpenSnapshotFile: arbitrary bytes written to a file and opened as a
// snapshot, and as a registry, must either open as a queryable snapshot or
// registry or be rejected with the ErrCorrupt family (ErrTornWrite for
// truncations) — never panic.
func FuzzOpenSnapshotFile(f *testing.F) {
	// Seeds: valid files of both kinds and several shapes, torn prefixes,
	// bit flips in header/sections/footer, cross-kind, junk, and a registry
	// file.
	dir := f.TempDir()
	mkFloat := func(n int, eps float64) []byte {
		s, err := NewFloat64(WithEpsilon(eps), WithSeed(uint64(n)))
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s.Update(float64(i % 101))
		}
		path := filepath.Join(dir, "seed.reqsnap")
		if err := s.Snapshot().WriteSnapshotFile(path); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return img
	}
	small := mkFloat(50, 0.1)
	f.Add(small)
	f.Add(mkFloat(0, 0.1))
	f.Add(mkFloat(5000, 0.02))
	u, err := NewUint64(WithEpsilon(0.1))
	if err != nil {
		f.Fatal(err)
	}
	u.Update(42)
	upath := filepath.Join(dir, "u.reqsnap")
	if err := u.Snapshot().WriteSnapshotFile(upath); err != nil {
		f.Fatal(err)
	}
	uimg, err := os.ReadFile(upath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uimg) // cross-kind: uint64 file through the float64 opener
	for _, cut := range []int{0, 1, 63, 4095, 4096, len(small) - 65, len(small) - 1} {
		if cut >= 0 && cut < len(small) {
			f.Add(small[:cut])
		}
	}
	for _, off := range []int{0, 9, 100, 600, 4000, 4100, len(small) - 30} {
		mut := append([]byte(nil), small...)
		mut[off] ^= 0x01
		f.Add(mut)
	}
	f.Add([]byte("REQSLAB1 but not really"))
	f.Add(bytes.Repeat([]byte{0}, 5000))
	reg := buildRegistry(f)
	rpath := filepath.Join(dir, "reg.reqsnap")
	if err := reg.WriteRegistryFile(rpath); err != nil {
		f.Fatal(err)
	}
	rimg, err := os.ReadFile(rpath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rimg)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.reqsnap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		for _, opts := range [][]OpenOption{
			nil,
			{WithVerify(VerifyFull)},
			{WithoutMmap()},
		} {
			m, err := OpenSnapshotFileFloat64(path, opts...)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("rejection outside the ErrCorrupt family: %v", err)
				}
				continue
			}
			// Accepted files must be queryable and self-consistent.
			if m.Count() > 0 {
				if _, err := m.Quantile(0.5); err != nil {
					t.Fatalf("accepted snapshot cannot answer quantile: %v", err)
				}
				var total uint64
				for _, w := range m.All() {
					total += w
				}
				if total != m.Count() {
					t.Fatalf("weights sum to %d, count %d", total, m.Count())
				}
			}
			_ = m.Rank(1)
			m.Close()
		}
		for _, opts := range [][]OpenOption{nil, {WithoutMmap()}} {
			rs, err := OpenRegistryFileFloat64(path, opts...)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("registry rejection outside the ErrCorrupt family: %v", err)
				}
				continue
			}
			// Accepted registries must answer a quantile for every key.
			for key, sn := range rs.All() {
				if _, err := sn.Quantile(0.5); err != nil && !(sn.Empty() && errors.Is(err, ErrEmpty)) {
					t.Fatalf("accepted registry key %q cannot answer quantile: %v", key, err)
				}
			}
		}
	})
}

// TestEncodersRejectUndecodableCoresets pins that the snapshot encoders
// refuse a coreset the package's decoders would reject — items in a
// descending order, or a NaN from a generic sketch — instead of reporting
// success, and that a refused save leaves no generation or file behind.
// An ascending custom order keeps encoding and decoding as a snapshot. The
// full-state and registry encoders refuse what no decoder reads: a custom
// order (the decoders rebuild under the natural one), an item type
// without a codec, and a registry shape without a decoder.
func TestEncodersRejectUndecodableCoresets(t *testing.T) {
	desc := func(a, b float64) bool { return a > b }
	asc := func(a, b float64) bool { return a < b }
	descSketch, err := New(desc, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	nanSketch, err := New(asc, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	descSharded, err := NewSharded(desc, WithSeed(3), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	nanSketch.Update(math.NaN())
	for i := 0; i < 1000; i++ {
		descSketch.Update(float64(i))
		nanSketch.Update(float64(i))
		descSharded.Update(float64(i))
	}
	for name, sn := range map[string]*Snapshot[float64]{
		"descending":         descSketch.Snapshot(),
		"NaN":                nanSketch.Snapshot(),
		"descending sharded": descSharded.Snapshot(),
	} {
		if _, err := sn.MarshalBinary(); err == nil {
			t.Errorf("%s: MarshalBinary accepted an undecodable coreset", name)
		}
		dir := t.TempDir()
		if _, err := sn.SaveSnapshot(dir); err == nil {
			t.Errorf("%s: SaveSnapshot accepted an undecodable coreset", name)
		}
		if _, err := OpenSnapshotFloat64(dir); !errors.Is(err, ErrNoSnapshot) {
			t.Errorf("%s: refused save left a generation behind (open: %v)", name, err)
		}
		path := filepath.Join(dir, "one.reqsnap")
		if err := sn.WriteSnapshotFile(path); err == nil {
			t.Errorf("%s: WriteSnapshotFile accepted an undecodable coreset", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: refused write left a file behind (stat: %v)", name, err)
		}
	}
	ascFull, err := New(asc, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ascSharded, err := NewSharded(asc, WithSeed(6), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ascReg, err := NewRegistry[string](asc, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	strSketch, err := New(func(a, b string) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	strReg, err := NewRegistry[string](core.LessU64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ascFull.Update(float64(i))
		ascSharded.Update(float64(i))
		ascReg.Update("k", float64(i))
		strSketch.Update(string(rune('a' + i%26)))
		strReg.Update("k", uint64(i))
	}
	f64Blob, err := mustFloat64(t, WithSeed(8)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(dir, path string) error{
		"custom-order Sketch.MarshalBinary": func(string, string) error {
			_, err := ascFull.MarshalBinary()
			return err
		},
		"custom-order Sketch.SaveSnapshot": func(dir, _ string) error {
			_, err := ascFull.SaveSnapshot(dir)
			return err
		},
		"custom-order Sharded.MarshalBinary": func(string, string) error {
			_, err := ascSharded.MarshalBinary()
			return err
		},
		"custom-order Registry.MarshalBinary": func(string, string) error {
			_, err := ascReg.MarshalBinary()
			return err
		},
		"custom-order Registry.SaveRegistry": func(dir, _ string) error {
			_, err := ascReg.SaveRegistry(dir)
			return err
		},
		"custom-order Registry.WriteRegistryFile": func(_, path string) error {
			return ascReg.WriteRegistryFile(path)
		},
		"Sketch[string].MarshalBinary": func(string, string) error {
			_, err := strSketch.MarshalBinary()
			return err
		},
		"Sketch[string].UnmarshalBinary": func(string, string) error {
			return strSketch.UnmarshalBinary(f64Blob)
		},
		"Registry[string, uint64].MarshalBinary": func(string, string) error {
			_, err := strReg.MarshalBinary()
			return err
		},
		"Registry[string, uint64].SaveRegistry": func(dir, _ string) error {
			_, err := strReg.SaveRegistry(dir)
			return err
		},
		"Registry[string, uint64].WriteRegistryFile": func(_, path string) error {
			return strReg.WriteRegistryFile(path)
		},
	} {
		root := t.TempDir()
		if err := call(filepath.Join(root, "gens"), filepath.Join(root, "one.reqsnap")); err == nil {
			t.Errorf("%s: accepted what no decoder reads", name)
		}
		if left, err := os.ReadDir(root); err != nil || len(left) != 0 {
			t.Errorf("%s: refused call left %d entries behind (%v)", name, len(left), err)
		}
	}
	if strSketch.Count() != 1000 {
		t.Errorf("refused UnmarshalBinary changed the sketch: count %d", strSketch.Count())
	}

	dir := t.TempDir()
	if _, err := descSharded.SaveSnapshot(dir); err == nil {
		t.Error("Sharded.SaveSnapshot accepted a descending coreset")
	}
	if _, err := OpenSnapshotFloat64(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("refused sharded save left a generation behind (open: %v)", err)
	}

	ascSketch, err := New(asc, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ascSketch.Update(float64(i))
	}
	sn := ascSketch.Snapshot()
	blob, err := sn.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSnapshotFloat64(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshotFloat64(dir, WithVerify(VerifyFull))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Count() != 1000 {
		t.Fatalf("reopened count = %d", m.Count())
	}
}
