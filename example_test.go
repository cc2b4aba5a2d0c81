package req_test

import (
	"fmt"

	"req"
)

// The most common usage: stream values, query quantiles.
func ExampleNewFloat64() {
	s, _ := req.NewFloat64(req.WithEpsilon(0.01), req.WithSeed(1))
	for i := 1; i <= 100000; i++ {
		s.Update(float64(i))
	}
	median, _ := s.Quantile(0.5)
	// The estimate carries ε=1% relative rank error; assert the guarantee
	// rather than a seed-specific value.
	fmt.Printf("n=%d median within 1%%: %v\n", s.Count(),
		median > 49000 && median < 51000)
	// Output: n=100000 median within 1%: true
}

// Rank queries estimate how many items are ≤ y.
func ExampleSketch_Rank() {
	s, _ := req.NewFloat64(req.WithEpsilon(0.05), req.WithSeed(1))
	for i := 0; i < 1000; i++ {
		s.Update(float64(i))
	}
	fmt.Println(s.Rank(499))
	// Output: 500
}

// Any totally ordered type works via a custom less function.
func ExampleNew() {
	type request struct {
		millis float64
		path   string
	}
	s, _ := req.New(func(a, b request) bool { return a.millis < b.millis },
		req.WithEpsilon(0.05), req.WithSeed(1))
	s.Update(request{12.5, "/health"})
	s.Update(request{250.0, "/search"})
	s.Update(request{40.1, "/home"})
	slowest, _ := s.Quantile(1)
	fmt.Println(slowest.path)
	// Output: /search
}

// Sketches merge freely; the combined sketch covers both streams.
func ExampleSketch_Merge() {
	a, _ := req.NewFloat64(req.WithEpsilon(0.05), req.WithSeed(1))
	b, _ := req.NewFloat64(req.WithEpsilon(0.05), req.WithSeed(2))
	for i := 0; i < 500; i++ {
		a.Update(float64(i))
		b.Update(float64(500 + i))
	}
	_ = a.Merge(b)
	fmt.Println(a.Count(), a.Rank(999))
	// Output: 1000 1000
}

// Serialization round-trips the full sketch state.
func ExampleFloat64_MarshalBinary() {
	s, _ := req.NewFloat64(req.WithEpsilon(0.05), req.WithSeed(1))
	for i := 0; i < 1000; i++ {
		s.Update(float64(i))
	}
	blob, _ := s.MarshalBinary()
	restored, _ := req.DecodeFloat64(blob)
	fmt.Println(restored.Count() == s.Count(), restored.Rank(499) == s.Rank(499))
	// Output: true true
}

// Weighted updates fold repeated values into one call.
func ExampleSketch_UpdateWeighted() {
	s, _ := req.NewFloat64(req.WithEpsilon(0.05), req.WithSeed(1))
	_ = s.UpdateWeighted(1.0, 900) // 900 fast requests
	_ = s.UpdateWeighted(9.0, 100) // 100 slow requests
	p95, _ := s.Quantile(0.95)
	fmt.Printf("n=%d p95=%.0f\n", s.Count(), p95)
	// Output: n=1000 p95=9
}
