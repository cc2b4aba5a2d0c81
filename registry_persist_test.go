package req

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// bit-identical to the live registry's frozen answers.
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
		bound := recordBound(s, float64Codec)
		n := frozenRecordLen(s.core.FreezeShared(), float64Codec)
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

// TestRegistryExportConsistentPerShard: records marshalled under the shard
// lock decode back to exactly the per-key state some interleaving of the
// writer could have produced (counts are whole update-batches, never torn).
func TestRegistryExportConsistentPerShard(t *testing.T) {
	reg, err := NewRegistryFloat64(WithK(4), WithSeed(1), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		vals := make([]float64, batch)
		for i := 0; i < 300; i++ {
			for j := range vals {
				vals[j] = float64(i*batch + j)
			}
			reg.UpdateBatch(fmt.Sprintf("w%d", i%5), vals)
		}
	}()
	for i := 0; i < 20; i++ {
		blob, _ := reg.MarshalBinary()
		rs, err := UnmarshalRegistryFloat64(blob)
		if err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
		for k, sn := range rs.All() {
			if sn.Count()%batch != 0 {
				t.Fatalf("export %d key %q: count %d is a torn batch", i, k, sn.Count())
			}
		}
	}
	<-done
}

// FuzzDecodeRegistryFloat64 hammers the registry decoder with hostile
// bytes: it must never panic, and anything it accepts must be queryable.
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
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:registryHeaderSize])
	f.Add([]byte("RREG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRegistryFloat64(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		for _, sn := range rs.All() {
			_ = sn.Count()
			_ = sn.Rank(1)
			if !sn.Empty() {
				if _, err := sn.Quantile(0.99); err != nil {
					t.Fatalf("accepted snapshot rejects Quantile: %v", err)
				}
			}
		}
	})
}
