package core

import (
	"reflect"
	"testing"

	"req/internal/rng"
)

// feedWork appends n uniform draws from seed to s.
func feedWork(s *Sketch[float64], n int, seed uint64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		s.Update(r.Float64())
	}
}

// TestWorkStaysWithItsSketch: a sketch keeps the Work it borrows, or has
// none, through Clone, CopyFrom, Merge (from a shorter, a taller and into
// an empty sketch), Reset and FromSnapshot; no operation moves one
// sketch's Work to another.
func TestWorkStaysWithItsSketch(t *testing.T) {
	cfg := Config{Eps: 0.05, Delta: 0.05, Seed: 61}
	lent := func(w *Work[float64], n int, seed uint64) *Sketch[float64] {
		s := newFloat64(t, cfg)
		s.Borrow(w)
		feedWork(s, n, seed)
		return s
	}
	var wa, wb, wc Work[float64]
	tall := lent(&wa, 200000, 62)
	short := lent(&wb, 3000, 63)
	if tall.NumLevels() <= short.NumLevels() {
		t.Fatalf("tall has %d levels, short %d", tall.NumLevels(), short.NumLevels())
	}

	c := tall.Clone()
	if c.work != nil || tall.work != &wa {
		t.Fatal("Clone shared the original's Work")
	}
	feedWork(c, 5000, 64)
	if c.work == nil || c.work == &wa {
		t.Fatal("a clone's compactions did not run on a Work of its own")
	}

	dst := lent(&wc, 100, 65)
	dst.CopyFrom(tall)
	if dst.work != &wc || tall.work != &wa {
		t.Fatal("CopyFrom moved a Work")
	}

	// A shorter source merges into the target's levels; a taller one into
	// a clone of it, which the target then becomes. Both run on the
	// target's Work, whose stage borrows it too.
	if err := dst.Merge(short); err != nil {
		t.Fatal(err)
	}
	if dst.work != &wc || short.work != &wb {
		t.Fatal("Merge of a shorter source moved a Work")
	}
	small := lent(&wb, 3000, 66)
	if err := small.Merge(tall); err != nil {
		t.Fatal(err)
	}
	if small.work != &wb || tall.work != &wa {
		t.Fatal("Merge of a taller source moved a Work")
	}
	if wb.stage != nil && wb.stage.work != &wb {
		t.Fatal("the merge stage borrows another Work")
	}

	empty := newFloat64(t, cfg)
	empty.Borrow(&wc)
	if err := empty.Merge(tall); err != nil {
		t.Fatal(err)
	}
	if empty.work != &wc {
		t.Fatal("Merge into an empty sketch dropped its Work")
	}
	own := newFloat64(t, cfg)
	if err := own.Merge(tall); err != nil {
		t.Fatal(err)
	}
	if own.work != nil {
		t.Fatal("Merge into an empty sketch without a Work took another's")
	}
	own.Update(0.5)
	if err := own.Merge(tall); err != nil {
		t.Fatal(err)
	}
	if own.work == nil || own.work == &wa {
		t.Fatal("Merge into a sketch without a Work took the source's")
	}

	tall.Reset()
	if tall.work != &wa {
		t.Fatal("Reset dropped the borrowed Work")
	}
	r, err := FromSnapshot(LessF64, short.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.work != nil {
		t.Fatal("FromSnapshot restored a Work")
	}
	for _, s := range []*Sketch[float64]{tall, short, c, dst, small, empty, own, r} {
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedWorkKeepsStatesApart: sketches that borrow one Work reach,
// write for write and read for read, the states that sketches with a Work
// each reach, and a view the Work builds for one sketch is never another
// sketch's memo.
func TestSharedWorkKeepsStatesApart(t *testing.T) {
	var shared Work[float64]
	const n = 4
	lent, own := make([]*Sketch[float64], n), make([]*Sketch[float64], n)
	for i := range lent {
		cfg := Config{Eps: 0.05, Delta: 0.05, HRA: i%2 == 1, Seed: 70 + uint64(i)}
		lent[i], own[i] = newFloat64(t, cfg), newFloat64(t, cfg)
		lent[i].Borrow(&shared)
	}
	r := rng.New(75)
	phis := []float64{0.01, 0.5, 0.99}
	for round := 0; round < 400; round++ {
		i := int(r.Uint64() % n)
		x := r.Float64()
		w := uint64(1)
		if round%37 == 0 {
			w = 6
		}
		for _, s := range []*Sketch[float64]{lent[i], own[i]} {
			if err := s.UpdateWeighted(x, w); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 50; j++ {
				s.Update(float64(round*50+j) / 20000)
			}
		}
		if round%5 == 0 {
			a, b := lent[i].SortedView(), own[i].SortedView()
			if !reflect.DeepEqual(a.Items(), b.Items()) || !reflect.DeepEqual(a.CumulativeWeights(), b.CumulativeWeights()) {
				t.Fatalf("round %d: sketch %d's view differs on the shared Work", round, i)
			}
			for k := range lent {
				if k != i && lent[k].memo() != nil {
					t.Fatalf("round %d: sketch %d's memo survived a view of sketch %d", round, k, i)
				}
			}
			got, err := lent[i].QuantilesInto(nil, phis)
			if err != nil {
				t.Fatal(err)
			}
			want, err := own[i].QuantilesInto(nil, phis)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: sketch %d reads %v on the shared Work, %v on its own (%v)", round, i, got, want, err)
			}
		}
	}
	for i := range lent {
		if !reflect.DeepEqual(lent[i].Snapshot(), own[i].Snapshot()) {
			t.Fatalf("sketch %d: state on the shared Work differs", i)
		}
		if f, g := lent[i].FreezeOwned(), own[i].FreezeOwned(); !reflect.DeepEqual(f.Items(), g.Items()) {
			t.Fatalf("sketch %d: frozen coreset on the shared Work differs", i)
		}
		if err := lent[i].CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreezeOwnedMergesOrCopiesMemo: FreezeOwned merges into arrays of
// exactly the retained size and leaves no view, or copies a current memo;
// both give the same coreset in storage of its own.
func TestFreezeOwnedMergesOrCopiesMemo(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 80})
	feedWork(s, 30000, 81)
	merged := s.FreezeOwned()
	if s.work.viewOf != nil || s.memo() != nil {
		t.Fatal("a merging FreezeOwned left a view")
	}
	if n := s.ItemsRetained(); len(merged.Items()) != n || cap(merged.Items()) != n || cap(merged.CumulativeWeights()) != n {
		t.Fatalf("merged into %d/%d items, want exactly %d", len(merged.Items()), cap(merged.Items()), n)
	}
	v := s.SortedView()
	copied := s.FreezeOwned()
	if &copied.Items()[0] == &v.Items()[0] || &copied.CumulativeWeights()[0] == &v.CumulativeWeights()[0] {
		t.Fatal("FreezeOwned aliased the memo view")
	}
	if !reflect.DeepEqual(merged.Items(), copied.Items()) || !reflect.DeepEqual(merged.CumulativeWeights(), copied.CumulativeWeights()) {
		t.Fatal("the merged and copied coresets differ")
	}
}

// TestInitAsMatchesInit: a sketch stamped from a prototype is the sketch
// Init builds from the same order and configuration under the same seed,
// state for state through a stream, in both accuracy modes.
func TestInitAsMatchesInit(t *testing.T) {
	for _, hra := range []bool{false, true} {
		cfg := Config{Mode: ModeFixedK, K: 16, HRA: hra, Seed: 3}
		var proto, stamped, built Sketch[float64]
		if err := proto.Init(LessF64, cfg); err != nil {
			t.Fatal(err)
		}
		stamped.InitAs(&proto, 99)
		cfg.Seed = 99
		if err := built.Init(LessF64, cfg); err != nil {
			t.Fatal(err)
		}
		feedWork(&stamped, 20000, 5)
		feedWork(&built, 20000, 5)
		if !reflect.DeepEqual(stamped.Snapshot(), built.Snapshot()) {
			t.Fatalf("hra=%v: the stamped sketch's state differs from Init's", hra)
		}
	}
}
