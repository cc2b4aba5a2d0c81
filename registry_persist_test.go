package req

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"req/internal/snapstore"
)

// buildRegistry returns a registry with a varied resident population:
// key sizes from 1 item to a few thousand, mixed distributions.
func buildRegistry(tb testing.TB) *RegistryFloat64 {
	tb.Helper()
	reg, err := NewRegistryFloat64(WithK(8), WithSeed(42), WithShards(4))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("svc-%02d", i)
		n := 1 << (i % 12) // 1 .. 2048 items
		for j := 0; j < n; j++ {
			reg.Update(key, float64((j*2654435761+i)%100000))
		}
	}
	return reg
}

// assertRegistryMatchesLive checks every live key answers bit-identically
// between its live frozen capture and the restored collection.
func assertRegistryMatchesLive(t *testing.T, reg *RegistryFloat64, rs *RegistrySnapshotFloat64) {
	t.Helper()
	if rs.Len() != reg.Len() {
		t.Fatalf("restored %d keys, live has %d", rs.Len(), reg.Len())
	}
	phis := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1}
	var keys []string
	reg.Visit(func(key string, s *Sketch[float64]) bool {
		keys = append(keys, key)
		return true
	})
	for _, key := range keys {
		sn, ok := rs.Get(key)
		if !ok {
			t.Fatalf("restored collection missing key %q", key)
		}
		live, err := reg.Snapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		if sn.Count() != live.Count() {
			t.Fatalf("%q: Count %d != live %d", key, sn.Count(), live.Count())
		}
		for _, phi := range phis {
			got, err1 := sn.Quantile(phi)
			want, err2 := live.Quantile(phi)
			if err1 != nil || err2 != nil {
				t.Fatalf("%q phi=%v: %v / %v", key, phi, err1, err2)
			}
			if got != want {
				t.Fatalf("%q phi=%v: restored %v != live %v", key, phi, got, want)
			}
		}
		for _, y := range []float64{-1, 0, 1, 500, 99999, 1e12} {
			if got, want := sn.Rank(y), live.Rank(y); got != want {
				t.Fatalf("%q Rank(%v): restored %d != live %d", key, y, got, want)
			}
		}
	}
}

// TestRegistryRoundTripBytes: export → decode → per-key answers
// bit-identical to the live registry's snapshots.
func TestRegistryRoundTripBytes(t *testing.T) {
	reg := buildRegistry(t)
	blob, err := reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := UnmarshalRegistryFloat64(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertRegistryMatchesLive(t, reg, rs)
	// The export is deterministic for an unchanged registry.
	blob2, _ := reg.MarshalBinary()
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-export of an unchanged registry differs")
	}
	// All() covers every key exactly once.
	seen := map[string]bool{}
	for k := range rs.All() {
		if seen[k] {
			t.Fatalf("All yielded %q twice", k)
		}
		seen[k] = true
	}
	if len(seen) != rs.Len() {
		t.Fatalf("All yielded %d keys, want %d", len(seen), rs.Len())
	}
}

// TestRegistryRecordBound: the export sizes its buffer before the walk from
// each key's retained count, so the bound must cover every record, length
// prefix included, at every level count.
func TestRegistryRecordBound(t *testing.T) {
	reg := buildRegistry(t)
	levels := map[int]bool{}
	reg.Visit(func(key string, s *Sketch[float64]) bool {
		bound := recordBound(s.core, float64Codec)
		n := frozenRecordLen(s.Snapshot(), float64Codec)
		if got := uvarintLen(uint64(n)) + n; got > bound {
			t.Fatalf("%q: record takes %d bytes, bound %d", key, got, bound)
		}
		levels[s.NumLevels()] = true
		return true
	})
	if len(levels) < 3 {
		t.Fatalf("keys span %d level counts; the bound needs several", len(levels))
	}
}

// TestRegistryRoundTripStore: export → snapstore save → reopen (the full
// property from the issue) plus generation rotation and torn-newest
// recovery.
func TestRegistryRoundTripStore(t *testing.T) {
	reg := buildRegistry(t)
	dir := t.TempDir() + "/regsnaps"
	gen, err := reg.SaveRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first save produced generation %d", gen)
	}
	rs, err := OpenRegistryFloat64(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Generation() != 1 {
		t.Fatalf("Generation() = %d", rs.Generation())
	}
	assertRegistryMatchesLive(t, reg, rs)

	// Grow the registry, save again: the newest generation wins.
	reg.Update("svc-00", 123456)
	if gen, err = reg.SaveRegistry(dir); err != nil || gen != 2 {
		t.Fatalf("second save: gen=%d err=%v", gen, err)
	}
	rs2, err := OpenRegistryFloat64(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Generation() != 2 {
		t.Fatalf("reopened generation %d, want 2", rs2.Generation())
	}
	assertRegistryMatchesLive(t, reg, rs2)

	// Tear the newest generation: OpenRegistry recovers generation 1, and
	// the damaged file itself reports a torn write.
	path2 := filepath.Join(dir, snapstore.GenName(2))
	img, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path2, img[:len(img)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rs3, err := OpenRegistryFloat64(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if rs3.Generation() != 1 {
		t.Fatalf("recovered generation %d, want 1", rs3.Generation())
	}
	if _, err := OpenRegistryFileFloat64(path2); !errors.Is(err, ErrTornWrite) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file error %v must wrap ErrTornWrite and ErrCorrupt", err)
	}
	if _, err := OpenRegistryFloat64(t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: %v, want ErrNoSnapshot", err)
	}
}

func TestRegistryRoundTripFile(t *testing.T) {
	reg := buildRegistry(t)
	path := t.TempDir() + "/reg.reqsnap"
	if err := reg.WriteRegistryFile(path); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenRegistryFileFloat64(path)
	if err != nil {
		t.Fatal(err)
	}
	assertRegistryMatchesLive(t, reg, rs)
}

func TestRegistryRoundTripUint64(t *testing.T) {
	reg, err := NewRegistryUint64(WithK(8), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 40; key++ {
		for j := uint64(0); j < (key+1)*17; j++ {
			reg.Update(key, j*j)
		}
	}
	blob, _ := reg.MarshalBinary()
	rs, err := UnmarshalRegistryUint64(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != reg.Len() {
		t.Fatalf("restored %d keys, want %d", rs.Len(), reg.Len())
	}
	for key := uint64(0); key < 40; key++ {
		sn, ok := rs.Get(key)
		if !ok {
			t.Fatalf("missing key %d", key)
		}
		live, _ := reg.Snapshot(key)
		if sn.Count() != live.Count() {
			t.Fatalf("key %d: Count %d != %d", key, sn.Count(), live.Count())
		}
		for _, phi := range []float64{0, 0.5, 1} {
			got, _ := sn.Quantile(phi)
			want, _ := live.Quantile(phi)
			if got != want {
				t.Fatalf("key %d phi=%v: %d != %d", key, phi, got, want)
			}
		}
	}
	path := t.TempDir() + "/reg64.reqsnap"
	if err := reg.WriteRegistryFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegistryFileUint64(path); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryEmptyRoundTrip(t *testing.T) {
	reg, err := NewRegistryFloat64(WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := reg.MarshalBinary()
	rs, err := UnmarshalRegistryFloat64(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("empty registry decoded to %d keys", rs.Len())
	}
	dir := t.TempDir() + "/empty"
	if _, err := reg.SaveRegistry(dir); err != nil {
		t.Fatal(err)
	}
	rs2, err := OpenRegistryFloat64(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Len() != 0 || rs2.Generation() != 1 {
		t.Fatalf("empty store reopened as %d keys gen %d", rs2.Len(), rs2.Generation())
	}
}

// TestRegistryDecodeRejectsTruncations: every proper prefix of a valid
// blob must fail with ErrCorrupt and never panic.
func TestRegistryDecodeRejectsTruncations(t *testing.T) {
	reg, err := NewRegistryFloat64(WithK(4), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		for j := 0; j <= i*13; j++ {
			reg.Update(key, float64(j))
		}
	}
	blob, _ := reg.MarshalBinary()
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalRegistryFloat64(blob[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d/%d: %v, want ErrCorrupt", n, len(blob), err)
		}
	}
}

// TestRegistryDecodeSurvivesBitFlips: flipping any single byte must never
// panic; the header region must always be rejected outright.
func TestRegistryDecodeSurvivesBitFlips(t *testing.T) {
	reg, err := NewRegistryFloat64(WithK(4), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("f%d", i)
		for j := 0; j < 40; j++ {
			reg.Update(key, float64(i*100+j))
		}
	}
	blob, _ := reg.MarshalBinary()
	mut := make([]byte, len(blob))
	for i := 0; i < len(blob); i++ {
		copy(mut, blob)
		mut[i] ^= 0xff
		rs, err := UnmarshalRegistryFloat64(mut)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: %v does not wrap ErrCorrupt", i, err)
			}
			continue
		}
		if i < registryHeaderSize {
			t.Fatalf("flip in header byte %d decoded successfully", i)
		}
		// A payload flip may still decode (e.g. a mutated key name);
		// whatever decodes must stay queryable without panicking.
		for _, sn := range rs.All() {
			_ = sn.Count()
			_, _ = sn.Quantile(0.5)
			_ = sn.Rank(50)
		}
	}
}

// TestRegistryCrossFormatRejection: registry files and single-snapshot
// files (and the two key/item instantiations) reject each other.
func TestRegistryCrossFormatRejection(t *testing.T) {
	dir := t.TempDir()

	reg := buildRegistry(t)
	regPath := dir + "/reg.reqsnap"
	if err := reg.WriteRegistryFile(regPath); err != nil {
		t.Fatal(err)
	}

	s, err := NewFloat64(WithEpsilon(0.1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Update(float64(i))
	}
	snapPath := dir + "/single.reqsnap"
	if err := s.Snapshot().WriteSnapshotFile(snapPath); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenRegistryFileFloat64(snapPath); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("single snapshot through registry opener: %v, want ErrCorrupt", err)
	}
	if _, err := OpenSnapshotFileFloat64(regPath); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("registry file through snapshot opener: %v, want ErrCorrupt", err)
	}
	if _, err := OpenRegistryFileUint64(regPath); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("float64 registry through uint64 opener: %v, want ErrCorrupt", err)
	}

	u, err := NewRegistryUint64(WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	u.Update(7, 7)
	blob, _ := u.MarshalBinary()
	if _, err := UnmarshalRegistryFloat64(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("uint64 blob through float64 decoder: %v, want ErrCorrupt", err)
	}
}

// TestRegistrySnapshotConcurrentReaders: the snapshots of one restore
// share its arenas, and any number of goroutines may query them at once.
// Each reader walks every key with the whole query surface and must see
// the answers a single reader saw; run under -race, it shows that no
// query writes to the shared storage.
func TestRegistrySnapshotConcurrentReaders(t *testing.T) {
	blob, err := buildRegistry(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := UnmarshalRegistryFloat64(blob)
	if err != nil {
		t.Fatal(err)
	}
	phis := []float64{0.5, 0.9, 0.99}
	read := func(sn *Snapshot[float64]) string {
		qs, err := sn.QuantilesInto(nil, phis)
		if err != nil {
			return err.Error()
		}
		rec, err := sn.MarshalBinary()
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(qs, sn.Rank(500), sn.RankBatch(nil, []float64{7, 70000, 3}), len(rec))
	}
	want := map[string]string{}
	for k, sn := range rs.All() {
		want[k] = read(sn)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, w := range want {
				sn, ok := rs.Get(k)
				if !ok {
					t.Errorf("key %q missing", k)
					return
				}
				if got := read(sn); got != w {
					t.Errorf("key %q: concurrent reader got %s, want %s", k, got, w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRegistryExportConsistentPerShard: records marshalled under the shard
// lock decode back to exactly the per-key state some interleaving of the
// writer could have produced (counts are whole update-batches, never torn),
// while a second exporter alternates MarshalBinary and SaveRegistry and a
// third goroutine deletes keys; the writer keeps writing until both
// exporters are done. Once the writers stop, the next export equals a full
// encode (exportReference), byte for byte.
func TestRegistryExportConsistentPerShard(t *testing.T) {
	reg, err := NewRegistryFloat64(WithK(4), WithSeed(1), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 10
	checkCounts := func(who string, i int, rs *RegistrySnapshotFloat64) {
		for k, sn := range rs.All() {
			if sn.Count()%batch != 0 {
				t.Errorf("%s %d key %q: count %d is a torn batch", who, i, k, sn.Count())
			}
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { // writer: at least 300 batches, then until stopped
		defer close(done)
		vals := make([]float64, batch)
		for i := 0; ; i++ {
			if i >= 300 {
				select {
				case <-stop:
					return
				default:
				}
			}
			for j := range vals {
				vals[j] = float64(i*batch + j)
			}
			reg.UpdateBatch(fmt.Sprintf("w%d", i%5), vals)
		}
	}()
	var deleter, exporter sync.WaitGroup
	deleter.Add(1)
	go func() { // deleter: drops one key at a time until the writer stops
		defer deleter.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			reg.Delete(fmt.Sprintf("w%d", i%5))
			runtime.Gosched()
		}
	}()
	exporter.Add(1)
	go func() { // second exporter: memory and durable exports in turn
		defer exporter.Done()
		dir := t.TempDir()
		for i := 0; i < 20; i++ {
			var rs *RegistrySnapshotFloat64
			if i%2 == 0 {
				blob, err := reg.MarshalBinary()
				if err == nil {
					rs, err = UnmarshalRegistryFloat64(blob)
				}
				if err != nil {
					t.Errorf("export %d: %v", i, err)
					return
				}
			} else {
				if _, err := reg.SaveRegistry(dir); err != nil {
					t.Errorf("save %d: %v", i, err)
					return
				}
				if rs, err = OpenRegistryFloat64(dir); err != nil {
					t.Errorf("open %d: %v", i, err)
					return
				}
			}
			checkCounts("second exporter", i, rs)
		}
	}()
	for i := 0; i < 20; i++ {
		blob, _ := reg.MarshalBinary()
		rs, err := UnmarshalRegistryFloat64(blob)
		if err != nil {
			t.Errorf("export %d: %v", i, err)
			break
		}
		checkCounts("export", i, rs)
	}
	exporter.Wait()
	close(stop)
	<-done
	deleter.Wait()
	blob, err := reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := exportReference(t, reg, putStringKey, keyString, float64Codec.tag); !bytes.Equal(blob, want) {
		t.Fatalf("export after the writers stopped (%d bytes) differs from a full encode (%d bytes)", len(blob), len(want))
	}
}

// TestRegistryDecodeKeyCountAmplification pins that a header claiming more
// keys than its payload can hold is refused before anything is sized by
// the claim: an all-zero payload under such a header decodes to ErrCorrupt
// and allocates less than its own length.
func TestRegistryDecodeKeyCountAmplification(t *testing.T) {
	const payload = 64 << 10
	for _, tc := range []struct {
		name    string
		keyTag  byte
		itemTag byte
		decode  func([]byte) error
	}{
		{"string-float64", keyString, float64Codec.tag, func(b []byte) error {
			_, err := UnmarshalRegistryFloat64(b)
			return err
		}},
		{"uint64-uint64", keyUint64, uint64Codec.tag, func(b []byte) error {
			_, err := UnmarshalRegistryUint64(b)
			return err
		}},
	} {
		blob := appendRegistryHeader(make([]byte, 0, registryHeaderSize+payload), tc.keyTag, tc.itemTag, payload)
		blob = append(blob, make([]byte, payload)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %d claimed keys over %d zero bytes: %v, want ErrCorrupt", tc.name, payload, payload, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(blob)) {
			t.Fatalf("%s: refusing a %d-byte blob allocated %d bytes", tc.name, len(blob), alloc)
		}
	}
}

// TestRegistryFilePacking round-trips record streams of every length
// around the packing boundaries (16 bytes per packing count, split across
// the two sections) through a registry file, byte for byte, and pins that
// a total field beyond the sections' bytes is refused.
func TestRegistryFilePacking(t *testing.T) {
	dir := t.TempDir()
	hdr := appendRegistryHeader(nil, keyString, float64Codec.tag, 0)
	roundTrip := func(p *snapstore.Payload, name string) ([]byte, error) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := snapstore.WriteSnapshotFile(snapstore.OS, path, 1, p); err != nil {
			t.Fatal(err)
		}
		file, err := snapstore.OpenFile(snapstore.OS, path, snapstore.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		return registryRecords(file)
	}
	for _, l := range []int{0, 1, 7, 8, 9, 15, 16, 17, 4095, 4096, 4097} {
		records := make([]byte, l)
		for i := range records {
			records[i] = byte(i*7+l) | 1 // no zero byte: padding cannot pass for data
		}
		blob := append(append([]byte(nil), hdr...), records...)
		got, err := roundTrip(registryPayload(blob), fmt.Sprintf("pack-%d.reqsnap", l))
		if err != nil {
			t.Fatalf("%d-byte stream: %v", l, err)
		}
		if !bytes.Equal(got, records) {
			t.Fatalf("%d-byte stream came back as %d bytes, or with different bytes", l, len(got))
		}
	}
	p := registryPayload(append(append([]byte(nil), hdr...), make([]byte, 17)...))
	p.Total = 8*p.Count*snapstore.NumSections + 1
	if _, err := roundTrip(p, "overlong.reqsnap"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("total %d beyond %d section bytes: %v, want ErrCorrupt", p.Total, p.Total-1, err)
	}
}

// FuzzDecodeRegistryFloat64 hammers the registry decoder with hostile
// bytes: it must never panic, and anything it accepts must pass
// checkAcceptedRegistry.
func FuzzDecodeRegistryFloat64(f *testing.F) {
	reg, err := NewRegistryFloat64(WithK(4), WithSeed(3))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("fz%d", i)
		for j := 0; j < 30*(i+1); j++ {
			reg.Update(key, float64(j))
		}
	}
	blob, _ := reg.MarshalBinary()
	addRegistrySeeds(f, blob, stringKeyCodec)
	// The first key's length pointing past the end of the payload.
	past := binary.AppendUvarint(append([]byte(nil), blob[:registryHeaderSize]...), uint64(len(blob)))
	f.Add(append(past, blob[registryHeaderSize+1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRegistryFloat64(data)
		checkAcceptedRegistry(t, data, rs, err)
	})
}

// FuzzDecodeRegistryUint64 is FuzzDecodeRegistryFloat64 for uint64→uint64
// registries: fixed-width keys and the uint64 item codec.
func FuzzDecodeRegistryUint64(f *testing.F) {
	reg, err := NewRegistryUint64(WithK(4), WithSeed(3))
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		for j := uint64(0); j < 30*(i+1); j++ {
			reg.Update(i<<40|7, j)
		}
	}
	blob, _ := reg.MarshalBinary()
	addRegistrySeeds(f, blob, uint64KeyCodec)
	// The first record's length pointing past the end of the payload.
	_, l := binary.Uvarint(blob[registryHeaderSize+8:])
	past := binary.AppendUvarint(append([]byte(nil), blob[:registryHeaderSize+8]...), uint64(len(blob)))
	f.Add(append(past, blob[registryHeaderSize+8+l:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRegistryUint64(data)
		checkAcceptedRegistry(t, data, rs, err)
	})
}

// addRegistrySeeds adds blob, a registry encoding under the key codec kc,
// its truncations, and each record's coreset-size field one above and one
// below its count, which the first walk sizes the arenas by.
func addRegistrySeeds[K comparable](f *testing.F, blob []byte, kc keyCodec[K]) {
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:registryHeaderSize])
	f.Add([]byte("RREG"))
	f.Add([]byte{})
	for _, off := range registrySizeFields(f, blob, kc) {
		for _, d := range []int32{1, -1} {
			mut := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint32(mut[off:], uint32(int32(binary.LittleEndian.Uint32(mut[off:]))+d))
			f.Add(mut)
		}
	}
}

// checkAcceptedRegistry checks a registry decode of data: a refusal must
// wrap ErrCorrupt, and every accepted key's coreset must be queryable and
// stand on its own in the restore's shared arenas — VerifyStructure passes
// under the codec's table, its item and cumulative slices are capped to
// their length, no two keys' slices share a byte, and the arena holds no
// more items than the input can encode at 9 bytes per item.
func checkAcceptedRegistry[K comparable, T any](t *testing.T, data []byte, rs *RegistrySnapshot[K, T], err error) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
		}
		return
	}
	type span struct{ lo, hi uintptr }
	var spans []span
	items := 0
	var zero T
	for k, sn := range rs.All() {
		_ = sn.Count()
		_ = sn.Rank(zero)
		if !sn.Empty() {
			if _, err := sn.Quantile(0.99); err != nil {
				t.Fatalf("accepted snapshot rejects Quantile: %v", err)
			}
		}
		if err := sn.v.VerifyStructure(); err != nil {
			t.Fatalf("key %v: accepted coreset fails VerifyStructure: %v", k, err)
		}
		is, cum := sn.v.Items(), sn.v.CumulativeWeights()
		if cap(is) != len(is) || cap(cum) != len(cum) {
			t.Fatalf("key %v: slices reach past their coreset: len %d cap %d / %d", k, len(is), cap(is), cap(cum))
		}
		if len(is) > 0 {
			for _, v := range []reflect.Value{reflect.ValueOf(is), reflect.ValueOf(cum)} {
				spans = append(spans, span{v.Pointer(), v.Pointer() + uintptr(8*v.Len())})
			}
		}
		items += len(is)
	}
	if items > len(data)/9 {
		t.Fatalf("%d items decoded from %d bytes", items, len(data))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatal("two keys' coreset slices share bytes")
		}
	}
}

// registrySizeFields returns the offset in blob, a registry encoding with
// keys under kc, of every record's coreset-size field. Both item codecs
// are 8 bytes wide, so the record prefix is the same for either.
func registrySizeFields[K comparable](tb testing.TB, blob []byte, kc keyCodec[K]) []int {
	tb.Helper()
	r := reader{buf: blob, off: registryHeaderSize}
	var offs []int
	for r.remaining() > 0 {
		n, _, ok := kc.span(r.buf[r.off:])
		if !ok {
			tb.Fatal("malformed key")
		}
		r.off += n
		l, ok := r.uvarint()
		if !ok {
			tb.Fatal("malformed record length")
		}
		offs = append(offs, r.off+recordPrefixLen(float64Codec)-4)
		r.off += int(l)
	}
	return offs
}
