package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

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
// write for write and read for read, the states and views that sketches
// with a Work each reach.
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
			a, b := lent[i].sortedView(), own[i].sortedView()
			if !reflect.DeepEqual(a.Items(), b.Items()) || !reflect.DeepEqual(a.CumulativeWeights(), b.CumulativeWeights()) {
				t.Fatalf("round %d: sketch %d's view differs on the shared Work", round, i)
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
		if f, g := owned(lent[i]), owned(own[i]); !reflect.DeepEqual(f.Items(), g.Items()) {
			t.Fatalf("sketch %d: frozen coreset on the shared Work differs", i)
		}
		if err := lent[i].CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeIntoOwnsItsStorage: MergeInto into a zero View sizes both
// arrays at exactly the retained count, builds no view in the Work, and
// leaves a View that a later write, compaction or Reset does not change.
func TestMergeIntoOwnsItsStorage(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 80})
	feedWork(s, 30000, 81)
	var v View[float64]
	s.MergeInto(&v)
	if s.work.view.items != nil {
		t.Fatal("MergeInto built a view in the Work")
	}
	n := s.ItemsRetained()
	if len(v.Items()) != n || cap(v.Items()) != n || len(v.CumulativeWeights()) != n || cap(v.CumulativeWeights()) != n {
		t.Fatalf("merged into %d/%d items and %d/%d weights, want exactly %d",
			len(v.Items()), cap(v.Items()), len(v.CumulativeWeights()), cap(v.CumulativeWeights()), n)
	}
	items := slices.Clone(v.Items())
	cum := slices.Clone(v.CumulativeWeights())
	count := v.Count()
	compactions := s.Stats().Compactions
	feedWork(s, 1, 82)
	feedWork(s, 2*s.BufferCapacity(), 83)
	if s.Stats().Compactions == compactions {
		t.Fatal("the writes ran no compaction")
	}
	s.sortedView()
	s.Reset()
	feedWork(s, 100, 84)
	s.sortedView()
	if v.Count() != count || !slices.Equal(v.Items(), items) || !slices.Equal(v.CumulativeWeights(), cum) {
		t.Fatal("a write, compaction or Reset of the sketch changed a View it merged into")
	}
}

// TestAllocsMergeIntoReused: MergeInto into a View that already holds
// storage reuses it, allocating nothing, and merges what a fresh View
// holds.
func TestAllocsMergeIntoReused(t *testing.T) {
	s := newFloat64(t, Config{Eps: 0.05, Delta: 0.05, Seed: 85})
	feedWork(s, 30000, 86)
	var v View[float64]
	s.MergeInto(&v)
	items := &v.Items()[0]
	if avg := testing.AllocsPerRun(200, func() { s.MergeInto(&v) }); avg != 0 {
		t.Fatalf("MergeInto into a reused View allocates %v allocs/op", avg)
	}
	if &v.Items()[0] != items {
		t.Fatal("MergeInto into a reused View moved its storage")
	}
	feedWork(s, 5000, 87)
	s.MergeInto(&v)
	if fresh := owned(s); !slices.Equal(v.Items(), fresh.Items()) || !slices.Equal(v.CumulativeWeights(), fresh.CumulativeWeights()) {
		t.Fatal("a reused View holds another coreset than a fresh one")
	}
}

// TestAllocsMergeIntoEmpty: merging a sketch that retains nothing costs
// no allocation beyond New's, borrows no Work, and leaves an empty View.
func TestAllocsMergeIntoEmpty(t *testing.T) {
	cfg := Config{Eps: 0.05, Delta: 0.05, Seed: 88}
	alone := testing.AllocsPerRun(100, func() { newFloat64(t, cfg) })
	var v View[float64]
	merged := testing.AllocsPerRun(100, func() { newFloat64(t, cfg).MergeInto(&v) })
	if merged != alone {
		t.Fatalf("New plus MergeInto of the empty sketch: %v allocs/op, New alone: %v", merged, alone)
	}
	s := newFloat64(t, cfg)
	s.MergeInto(&v)
	if s.work != nil {
		t.Fatal("MergeInto of the empty sketch borrowed a Work")
	}
	if !v.Empty() || v.Size() != 0 || len(v.CumulativeWeights()) != 0 {
		t.Fatal("MergeInto of the empty sketch left a nonempty View")
	}
}

// box is an item held by pointer, to see which items stay reachable. Its
// padding keeps it out of the runtime's tiny-object blocks, where one live
// neighbour would keep a dead box's weak pointer set.
type box struct {
	x float64
	_ [2]uint64
}

// TestResetLeavesNoItemReachable: once a sketch of pointer-bearing items
// is Reset, no item it has seen stays reachable through it — neither
// through its levels nor through its Work's compaction scratch, view,
// merge staging or merge stage — including the items of a sketch merged
// into it.
func TestResetLeavesNoItemReachable(t *testing.T) {
	less := func(a, b *box) bool { return a.x < b.x }
	cfg := Config{Eps: 0.05, Delta: 0.05, Seed: 90}
	var seen []weak.Pointer[box]
	feed := func(s *Sketch[*box], n int, seed uint64) {
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			b := &box{x: r.Float64()}
			seen = append(seen, weak.Make(b))
			s.Update(b)
		}
	}
	s, err := New(less, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(s, 20000, 91)
	// A shorter sketch merges its unsorted level-0 tail through the Work's
	// merge staging, and one still at the initial bound through the stage.
	for i, n := range []int{3000, 700} {
		func() {
			o, err := New(less, Config{Eps: 0.05, Delta: 0.05, Seed: 92 + uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			feed(o, n, 94+uint64(i))
			if err := s.Merge(o); err != nil {
				t.Fatal(err)
			}
		}()
	}
	if w := s.work; len(w.mergeBuf) == 0 || w.stage == nil || len(w.stage.levels) == 0 {
		t.Fatal("the merges did not run through both the merge staging and the stage")
	}
	probes := []*box{{x: 0.25}, {x: 0.5}, {x: 0.75}}
	s.RankBatch(nil, probes)
	s.Reset()
	runtime.GC()
	runtime.GC()
	live := 0
	for _, p := range seen {
		if p.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d of %d items stay reachable after Reset", live, len(seen))
	}
	runtime.KeepAlive(s)
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
