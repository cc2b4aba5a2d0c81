package snapstore

import (
	"bytes"
	"errors"
	"testing"
)

// matchesPayload reports whether f serves exactly payload p at gen.
func matchesPayload(f *File, p *Payload, gen uint64) bool {
	if f.Header.Gen != gen || f.Header.Count != p.Count || f.Header.Total != p.Total {
		return false
	}
	if !bytes.Equal(f.Header.App, p.App) {
		return false
	}
	for i := range p.Sections {
		if !bytes.Equal(f.Section(i), p.Sections[i]) {
			return false
		}
	}
	return true
}

// requireOldOrNew asserts the crash-safety contract on one post-crash
// world: OpenLatest must serve either the old or the new payload, fully
// intact — never an error, never a blend.
func requireOldOrNew(t *testing.T, world *MemFS, dir string, old, new_ *Payload, budget int64, label string) (servedNew bool) {
	t.Helper()
	st := NewStore(world, dir)
	f, err := st.OpenLatest(OpenOptions{})
	if err != nil {
		t.Fatalf("budget %d, %s world: recovery failed: %v", budget, label, err)
	}
	defer f.Close()
	switch {
	case matchesPayload(f, old, 1):
		return false
	case matchesPayload(f, new_, 2):
		return true
	default:
		t.Fatalf("budget %d, %s world: recovered generation %d matches neither old nor new payload",
			budget, label, f.Header.Gen)
		return false
	}
}

// TestCrashMatrix is the exhaustive fault-injection sweep: starting from a
// durable generation 1, a second Save is interrupted after every possible
// amount of progress — every byte boundary of the file image and every
// metadata operation (create, fsync, rename, directory fsync, prune). For
// each crash point, recovery is checked in both post-crash worlds:
//
//   - "persisted": everything unsynced is lost (MemFS.Crash) — the
//     pessimal power cut;
//   - "volatile": everything written survived — the optimal crash.
//
// Real crashes land between the two; passing both extremes plus the torn
// sweep in TestTruncationEveryByte brackets them. The invariant: recovery
// ALWAYS serves old-or-new, and a Save that reported success implies the
// new generation is durable even in the pessimal world.
func TestCrashMatrix(t *testing.T) {
	const dir = "data/snaps"
	pOld := testPayload(6, 10)
	pNew := testPayload(11, 20)

	// Baseline: a store with durable generation 1.
	base := NewMemFS()
	if _, err := NewStore(base, dir).Save(pOld); err != nil {
		t.Fatal(err)
	}
	base.SyncDir(dir) // everything durable before the experiment begins

	// Size the sweep: run the second save once, uninterrupted, and record
	// its total cost in injection units.
	probe := NewFaultFS(base.Clone())
	if _, err := NewStore(probe, dir).Save(pNew); err != nil {
		t.Fatal(err)
	}
	total := probe.Cost()
	if total < headerSize {
		t.Fatalf("implausible save cost %d", total)
	}
	t.Logf("sweeping %d crash points", total)

	sawOldPersisted, sawNewPersisted := false, false
	for budget := int64(0); budget <= total; budget++ {
		world := base.Clone()
		ff := NewFaultFS(world)
		ff.Arm(budget)
		st := NewStore(ff, dir)
		_, saveErr := st.Save(pNew)
		crashed := ff.Crashed()
		if budget < total && !crashed {
			t.Fatalf("budget %d < total %d but no fault fired", budget, total)
		}
		if saveErr != nil && !errors.Is(saveErr, ErrInjected) {
			t.Fatalf("budget %d: save failed with a non-injected error: %v", budget, saveErr)
		}

		// Optimal world: every written byte survived.
		requireOldOrNew(t, world.Clone(), dir, pOld, pNew, budget, "volatile")

		// Pessimal world: everything unsynced is gone.
		world.Crash()
		servedNew := requireOldOrNew(t, world, dir, pOld, pNew, budget, "persisted")
		if saveErr == nil && !servedNew {
			// Save reported success ⇒ rename+dir-sync completed ⇒ the new
			// generation must be durable even if later pruning was cut short.
			t.Fatalf("budget %d: save succeeded but pessimal recovery served the old generation", budget)
		}
		if servedNew {
			sawNewPersisted = true
		} else {
			sawOldPersisted = true
		}
	}
	// Sanity on the sweep itself: both outcomes must actually occur.
	if !sawOldPersisted || !sawNewPersisted {
		t.Fatalf("degenerate sweep: old served=%v new served=%v", sawOldPersisted, sawNewPersisted)
	}
}

// TestCrashMatrixFirstSave sweeps crash points of the FIRST save into an
// empty directory: recovery must then report ErrNoSnapshot or serve the
// complete new generation — never corruption.
func TestCrashMatrixFirstSave(t *testing.T) {
	const dir = "snaps"
	p := testPayload(5, 7)

	probe := NewFaultFS(NewMemFS())
	if _, err := NewStore(probe, dir).Save(p); err != nil {
		t.Fatal(err)
	}
	total := probe.Cost()

	for budget := int64(0); budget <= total; budget++ {
		world := NewMemFS()
		ff := NewFaultFS(world)
		ff.Arm(budget)
		_, saveErr := NewStore(ff, dir).Save(p)

		for _, w := range []*MemFS{world.Clone(), crashOf(world)} {
			f, err := NewStore(w, dir).OpenLatest(OpenOptions{})
			switch {
			case err == nil:
				if !matchesPayload(f, p, 1) {
					t.Fatalf("budget %d: recovered file is not the saved payload", budget)
				}
				f.Close()
			case errors.Is(err, ErrNoSnapshot):
				// Acceptable: the crash predates a durable generation.
			default:
				t.Fatalf("budget %d: recovery error %v", budget, err)
			}
		}
		if saveErr == nil {
			// Success implies pessimal-world durability.
			f, err := NewStore(crashOf(world), dir).OpenLatest(OpenOptions{})
			if err != nil {
				t.Fatalf("budget %d: save succeeded but pessimal recovery failed: %v", budget, err)
			}
			f.Close()
		}
	}
}

// crashOf returns a post-power-cut copy of m without disturbing m itself:
// an exact clone (synced/unsynced distinction preserved) with the crash
// applied.
func crashOf(m *MemFS) *MemFS {
	scratch := m.CloneExact()
	scratch.Crash()
	return scratch
}

// TestFsyncFailureThenRetry: a save whose file fsync fails must leave the
// store fully usable — the old generation intact and a subsequent retry
// succeeding.
func TestFsyncFailureThenRetry(t *testing.T) {
	const dir = "snaps"
	pOld := testPayload(4, 1)
	pNew := testPayload(8, 2)

	m := NewMemFS()
	if _, err := NewStore(m, dir).Save(pOld); err != nil {
		t.Fatal(err)
	}

	// Find the cost position of the file Sync: it is the first metadata op
	// after all payload bytes. Probe the full save, then arm just below
	// completion repeatedly until the error is a Sync failure — simpler:
	// sweep budgets and pick one where the temp file holds the full image
	// but the save failed.
	probe := NewFaultFS(m.Clone())
	if _, err := NewStore(probe, dir).Save(pNew); err != nil {
		t.Fatal(err)
	}
	total := probe.Cost()

	retried := false
	for budget := total - 1; budget >= 0 && budget > total-6; budget-- {
		world := m.Clone()
		ff := NewFaultFS(world)
		ff.Arm(budget)
		if _, err := NewStore(ff, dir).Save(pNew); err == nil {
			continue // prune-phase fault; save legitimately succeeded
		}
		// The process SURVIVES (no crash): retry on the same world with the
		// fault cleared.
		ff.Disarm()
		gen, err := NewStore(ff, dir).Save(pNew)
		if err != nil {
			t.Fatalf("budget %d: retry failed: %v", budget, err)
		}
		f, err := NewStore(world, dir).OpenLatest(OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !matchesPayload(f, pNew, gen) {
			t.Fatalf("budget %d: retry did not serve the new payload", budget)
		}
		f.Close()
		retried = true
	}
	if !retried {
		t.Fatal("sweep never exercised a failed-then-retried save")
	}
}

// TestFaultFSShortWrite: the injector must apply the affordable PREFIX of
// a write (torn write), not refuse cleanly.
func TestFaultFSShortWrite(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")
	ff := NewFaultFS(m)
	ff.Arm(1 + 5) // 1 for Create, 5 bytes of payload
	w, err := ff.Create("d/f")
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("hello world"))
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	if !ff.Crashed() {
		t.Fatal("injector not crashed after exhaustion")
	}
	// Everything afterwards fails.
	if _, err := ff.Create("d/g"); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash create: %v", err)
	}
	if err := ff.Rename("d/f", "d/h"); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash rename: %v", err)
	}
	// The torn prefix is visible in the volatile world.
	rf, err := m.Open("d/f")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := rf.Size()
	if size != 5 {
		t.Fatalf("torn file has %d bytes, want 5", size)
	}
	rf.Close()
}

// TestMemFSCrashSemantics pins the two-level durability model the matrix
// rests on.
func TestMemFSCrashSemantics(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("d")

	w, _ := m.Create("d/a")
	w.Write([]byte("one"))
	w.Sync()
	w.Close()
	m.SyncDir("d")

	// Unsynced content and un-SyncDir'd renames must vanish on crash.
	w, _ = m.Create("d/b")
	w.Write([]byte("two"))
	w.Sync() // content synced, but the NAME was never SyncDir'd
	w.Close()
	w, _ = m.Create("d/c")
	w.Write([]byte("three")) // never synced at all
	w.Close()
	m.Rename("d/a", "d/a2") // rename not SyncDir'd

	m.Crash()

	if _, err := m.Open("d/a2"); err == nil {
		t.Fatal("unsynced rename survived crash")
	}
	rf, err := m.Open("d/a")
	if err != nil {
		t.Fatalf("synced file lost: %v", err)
	}
	buf := make([]byte, 3)
	rf.ReadAt(buf, 0)
	if string(buf) != "one" {
		t.Fatalf("synced content corrupted: %q", buf)
	}
	rf.Close()
	if _, err := m.Open("d/b"); err == nil {
		t.Fatal("un-SyncDir'd create survived crash")
	}
	if _, err := m.Open("d/c"); err == nil {
		t.Fatal("unsynced file survived crash")
	}

	// Content synced but written MORE after the sync: crash reverts to the
	// synced prefix.
	w, _ = m.Create("d/p")
	w.Write([]byte("dur"))
	w.Sync()
	w.Write([]byte("able"))
	w.Close()
	m.SyncDir("d")
	m.Crash()
	rf, err = m.Open("d/p")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := rf.Size()
	if size != 3 {
		t.Fatalf("post-crash size %d, want 3 (synced prefix)", size)
	}
	rf.Close()
}
