package req

import (
	"errors"
	"math"
	"testing"

	"req/internal/rng"
)

func TestUint64Basic(t *testing.T) {
	s, err := NewUint64(WithEpsilon(0.05), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	r := rng.New(2)
	for _, v := range r.Perm(n) {
		s.Update(uint64(v))
	}
	if s.Count() != n {
		t.Fatalf("count = %d", s.Count())
	}
	for rank := 1; rank <= n; rank *= 10 {
		got := float64(s.Rank(uint64(rank - 1)))
		if math.Abs(got-float64(rank))/float64(rank) > 0.05 {
			t.Fatalf("rank %d: %v", rank, got)
		}
	}
	mn, _ := s.Min()
	mx, _ := s.Max()
	if mn != 0 || mx != n-1 {
		t.Fatalf("min/max %d/%d", mn, mx)
	}
}

func TestUint64SerdeRoundTrip(t *testing.T) {
	s, err := NewUint64(WithEpsilon(0.05), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for _, v := range r.Perm(80000) {
		s.Update(uint64(v))
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeUint64(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.ItemsRetained() != s.ItemsRetained() {
		t.Fatal("structural mismatch after round trip")
	}
	for y := uint64(0); y < 80000; y += 977 {
		if restored.Rank(y) != s.Rank(y) {
			t.Fatalf("rank mismatch at %d", y)
		}
	}
}

func TestUint64SerdeResume(t *testing.T) {
	s, _ := NewUint64(WithEpsilon(0.1), WithSeed(5))
	for i := uint64(0); i < 50000; i++ {
		s.Update(i)
	}
	blob, _ := s.MarshalBinary()
	restored, err := DecodeUint64(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(50000); i < 80000; i++ {
		s.Update(i)
		restored.Update(i)
	}
	if s.ItemsRetained() != restored.ItemsRetained() {
		t.Fatal("resume diverged")
	}
}

func TestCrossTypeDecodeRejected(t *testing.T) {
	f, _ := NewFloat64(WithEpsilon(0.1))
	f.Update(1)
	blob, _ := f.MarshalBinary()
	if _, err := DecodeUint64(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("float64 blob decoded as uint64: %v", err)
	}
	u, _ := NewUint64(WithEpsilon(0.1))
	u.Update(1)
	ublob, _ := u.MarshalBinary()
	if _, err := DecodeFloat64(ublob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("uint64 blob decoded as float64: %v", err)
	}
}

func TestUint64Merge(t *testing.T) {
	a, _ := NewUint64(WithEpsilon(0.05), WithSeed(6))
	b, _ := NewUint64(WithEpsilon(0.05), WithSeed(7))
	for i := uint64(0); i < 50000; i++ {
		a.Update(i)
		b.Update(50000 + i)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 100000 {
		t.Fatalf("count = %d", a.Count())
	}
	if err := a.Merge(nil); err != nil {
		t.Fatal(err)
	}
	got := float64(a.Rank(49999))
	if math.Abs(got-50000)/50000 > 0.05 {
		t.Fatalf("merged Rank = %v", got)
	}
}

func TestPublicWeightedUpdates(t *testing.T) {
	s, _ := NewFloat64(WithEpsilon(0.05), WithSeed(8))
	var total uint64
	for i := 0; i < 2000; i++ {
		w := uint64(i%7 + 1)
		if err := s.UpdateWeighted(float64(i), w); err != nil {
			t.Fatal(err)
		}
		total += w
	}
	if s.Count() != total {
		t.Fatalf("count = %d, want %d", s.Count(), total)
	}
	if err := s.UpdateWeighted(5, 0); err != nil {
		t.Fatal(err)
	}
	if s.Count() != total {
		t.Fatal("zero weight counted")
	}
}
