package core

import (
	"testing"
)

func lessF(a, b float64) bool { return a < b }

func TestCloneDeepCopy(t *testing.T) {
	s, err := New(lessF, Config{Eps: 0.05, Delta: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		s.Update(float64(i))
	}
	c := s.Clone()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	if c.Count() != s.Count() || c.ItemsRetained() != s.ItemsRetained() || c.NumLevels() != s.NumLevels() {
		t.Fatalf("clone shape differs: n %d/%d items %d/%d levels %d/%d",
			c.Count(), s.Count(), c.ItemsRetained(), s.ItemsRetained(), c.NumLevels(), s.NumLevels())
	}
	for y := float64(0); y < 50000; y += 4999 {
		if c.Rank(y) != s.Rank(y) {
			t.Fatalf("clone rank(%v) = %d, original %d", y, c.Rank(y), s.Rank(y))
		}
	}
	// Mutating the original must not leak into the clone.
	before := c.Count()
	for i := 0; i < 10000; i++ {
		s.Update(float64(-i))
	}
	if c.Count() != before {
		t.Fatal("clone aliases the original's buffers")
	}
}

// TestCloneContinuesIdentically checks that the clone copies the random
// stream: clone and a second clone fed the same further input stay
// bit-for-bit identical (same compaction coins, hence same retained sets).
func TestCloneContinuesIdentically(t *testing.T) {
	s, err := New(lessF, Config{Eps: 0.05, Delta: 0.05, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30000; i++ {
		s.Update(float64(i))
	}
	a, b := s.Clone(), s.Clone()
	for i := 0; i < 30000; i++ {
		v := float64(i * 7 % 30000)
		a.Update(v)
		b.Update(v)
	}
	if a.Count() != b.Count() || a.ItemsRetained() != b.ItemsRetained() {
		t.Fatalf("clones diverged: n %d/%d items %d/%d", a.Count(), b.Count(), a.ItemsRetained(), b.ItemsRetained())
	}
	av, bv := a.sortedView(), b.sortedView()
	if av.Size() != bv.Size() {
		t.Fatalf("view sizes differ: %d vs %d", av.Size(), bv.Size())
	}
	for i, x := range av.Items() {
		if x != bv.Items()[i] || av.Weight(i) != bv.Weight(i) {
			t.Fatalf("views differ at %d: (%v,%d) vs (%v,%d)",
				i, x, av.Weight(i), bv.Items()[i], bv.Weight(i))
		}
	}
}

func TestCloneEmpty(t *testing.T) {
	s, err := New(lessF, Config{Eps: 0.1, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if !c.Empty() {
		t.Fatal("clone of empty sketch not empty")
	}
	c.Update(1)
	if !s.Empty() {
		t.Fatal("updating the clone touched the original")
	}
}
