// Weighted updates: summarising pre-aggregated data.
//
// Telemetry pipelines often deliver histograms rather than raw events —
// "value 12ms seen 9,431 times this minute". UpdateWeighted folds a whole
// bucket into the sketch in O(log weight) work instead of replaying every
// event, while keeping the exact same distribution (weight conservation is
// an invariant of the implementation). This example builds two sketches of
// an identical distribution — one from 5 million raw events, one from the
// equivalent 512-bucket histogram — and shows they agree.
//
//	go run ./examples/weighted
package main

import (
	"fmt"
	"math"
	"time"

	"req"
	"req/internal/rng"
)

func main() {
	const buckets = 512
	const eventsPerBucketMean = 10_000

	// A synthetic per-bucket histogram of service latencies.
	r := rng.New(7)
	values := make([]float64, buckets)
	weights := make([]uint64, buckets)
	var total uint64
	for i := range values {
		values[i] = 5 * math.Exp(float64(i)/90) // log-spaced bucket centers
		weights[i] = uint64(float64(eventsPerBucketMean) * math.Exp(-float64(i)/128) * (0.5 + r.Float64()))
		total += weights[i]
	}
	fmt.Printf("histogram: %d buckets, %d total events\n\n", buckets, total)

	// Path A: weighted updates, one call per bucket.
	weighted, err := req.NewFloat64(req.WithEpsilon(0.01), req.WithSeed(1))
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for i := range values {
		if err := weighted.UpdateWeighted(values[i], weights[i]); err != nil {
			panic(err)
		}
	}
	weightedDur := time.Since(start)

	// Path B: replay every raw event.
	raw, err := req.NewFloat64(req.WithEpsilon(0.01), req.WithSeed(2))
	if err != nil {
		panic(err)
	}
	start = time.Now()
	for i := range values {
		for j := uint64(0); j < weights[i]; j++ {
			raw.Update(values[i])
		}
	}
	rawDur := time.Since(start)

	fmt.Printf("ingest time: weighted %v (%d calls) vs raw replay %v (%d calls)\n\n",
		weightedDur, buckets, rawDur, total)

	// Both sketches must describe the same distribution.
	fmt.Println("quantile   weighted      raw-replay    true")
	for _, phi := range []float64{0.25, 0.5, 0.9, 0.99, 0.999} {
		qw, _ := weighted.Quantile(phi)
		qr, _ := raw.Quantile(phi)
		fmt.Printf("  p%-7.2f %-13.3f %-13.3f %-13.3f\n", phi*100, qw, qr, trueQuantile(values, weights, total, phi))
	}

	fmt.Printf("\ncounts: weighted n=%d, raw n=%d (exact conservation)\n", weighted.Count(), raw.Count())
	fmt.Printf("footprints: weighted %d items, raw %d items\n", weighted.ItemsRetained(), raw.ItemsRetained())
}

// trueQuantile walks the histogram for the exact answer (buckets are
// already value-sorted by construction).
func trueQuantile(values []float64, weights []uint64, total uint64, phi float64) float64 {
	target := uint64(math.Ceil(phi * float64(total)))
	if target == 0 {
		target = 1
	}
	var run uint64
	for i := range values {
		run += weights[i]
		if run >= target {
			return values[i]
		}
	}
	return values[len(values)-1]
}
