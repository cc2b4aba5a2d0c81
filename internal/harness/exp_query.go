package harness

import (
	"fmt"
	"io"
	"time"

	"req/internal/core"
	"req/internal/rng"
)

func init() {
	register(Experiment{
		ID:       "E16",
		Title:    "Query engine: live quantile reads vs view builds, and batch queries",
		PaperRef: "engineering of Algorithm 2's Estimate-Rank at query time (extension; sorted-buffer maintenance after Ivkin et al. 2019)",
		Run:      runE16,
	})
}

// runE16 measures the read path of the engine on one machine: what the
// first read after a write burst costs as a live QuantilesInto (selection
// over the settled levels, no view) versus a Freeze (full view rebuild plus
// rank index, what RankBatch, CDF/PMF, Snapshot and All pay after writes),
// and how batch rank queries amortize against independent probes. Numbers
// are wall-clock medians on the current host — this experiment documents
// the engine, not the paper.
func runE16(w io.Writer, cfg Config) error {
	n := 1 << 20
	reps := 9
	if cfg.Quick {
		n = 1 << 16
		reps = 3
	}
	s, err := core.New(core.LessF64,
		core.Config{Eps: 0.01, Delta: 0.01, Seed: cfg.Seed + 16})
	if err != nil {
		return err
	}
	r := rng.New(cfg.Seed + 161)
	for i := 0; i < n; i++ {
		s.Update(r.Float64())
	}
	fmt.Fprintf(w, "stream n=%d, eps=0.01: %d retained items in the sorted view\n\n", n, s.SortedView().Size())

	// --- first read after a small write burst: live read vs Freeze --------
	phis := []float64{0.5, 0.9, 0.99}
	var qs []float64
	tab := NewTable("writes_between_reads", "live_quantiles_us", "freeze_us", "freeze/live")
	for _, burst := range []int{1, 8, 64} {
		live := medianRun(reps, func() {
			for i := 0; i < burst; i++ {
				s.Update(r.Float64())
			}
			if qs, err = s.QuantilesInto(qs, phis); err != nil {
				panic(err)
			}
		})
		freeze := medianRun(reps, func() {
			for i := 0; i < burst; i++ {
				s.Update(r.Float64())
			}
			s.Freeze()
		})
		tab.AddRow(burst, float64(live.Microseconds()), float64(freeze.Microseconds()),
			fmt.Sprintf("%.1fx", float64(freeze)/float64(live)))
	}
	tab.Fprint(w)
	fmt.Fprintf(w, "\n(the live read settles level 0's append tail in place and selects p50/p90/p99\nover the sorted levels; Freeze re-runs the full k-way merge into reused storage\nand builds the rank index)\n\n")

	// --- batch rank queries vs independent probes -------------------------
	s.Freeze()
	probes := make([]float64, 1024)
	for i := range probes {
		probes[i] = r.Float64()
	}
	sorted := append([]float64(nil), probes...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	tab = NewTable("batch", "order", "ns_per_probe", "single_ns_per_probe")
	dst := make([]uint64, 0, len(probes))
	for _, size := range []int{64, 1024} {
		for _, tc := range []struct {
			name string
			ys   []float64
		}{{"sorted", sorted[:size]}, {"random", probes[:size]}} {
			batch := medianRun(reps, func() {
				dst = s.RankBatch(dst, tc.ys)
			})
			single := medianRun(reps, func() {
				for _, y := range tc.ys {
					s.Rank(y)
				}
			})
			tab.AddRow(size, tc.name,
				float64(batch.Nanoseconds())/float64(size),
				float64(single.Nanoseconds())/float64(size))
		}
	}
	tab.Fprint(w)
	fmt.Fprintf(w, "\n(batch sorts the probe set once and answers with one galloping sweep;\nsingle probes each pay a full descent of the frozen view's rank index)\n")
	return nil
}

// medianRun times fn reps times and returns the median duration.
func medianRun(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}
