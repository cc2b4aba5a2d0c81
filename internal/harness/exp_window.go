package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	req "req"
	"req/internal/exact"
	"req/internal/rng"
	"req/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "E17",
		Title:    "Windowed registry accuracy: union reads over the live slots vs exact window oracle",
		PaperRef: "Theorem 3: the live per-epoch slots read as one weighted coreset keep the ε guarantee over the window",
		Run:      runE17,
	})
}

// runE17 checks the WindowedRegistry query path against ground truth: a
// per-key ring of per-epoch sketches read as the weighted union of the live
// slots' coresets must carry the same relative-error budget as one sketch
// over the same items, because the union's rank error is the sum of the
// slots' own (Theorem 3, without a merge's extra compactions). The
// experiment keeps an exact copy of every live window, advances a
// synthetic clock through many rotations, and profiles the relative rank
// error of windowed Rank answers at log-spaced ranks and of the windowed
// p50/p90/p99 from QuantilesInto — including the partial current slot and
// the rotation boundary, the two states a single-sketch test never sees.
func runE17(w io.Writer, cfg Config) error {
	const (
		eps   = 0.05
		slots = 6
	)
	perEpoch := 20000
	epochs := 3 * slots
	trials := 4
	if cfg.Quick {
		perEpoch = 2000
		epochs = 2 * slots
		trials = 2
	}
	slot := time.Second
	fmt.Fprintf(w, "window: %d slots × %s; %d items/epoch over %d epochs; ε=%.2f; %d trials\n",
		slots, slot, perEpoch, epochs, eps, trials)
	fmt.Fprintf(w, "each query epoch compares windowed Rank and QuantilesInto against an exact oracle over the live window\n\n")

	master := rng.New(cfg.Seed + 17)
	type bucket struct{ errs []float64 }
	// Rank fractions of the window checked at every query point.
	fracs := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	buckets := make([]bucket, len(fracs))
	// Dashboard ranks checked through QuantilesInto at every query point.
	phis := []float64{0.5, 0.9, 0.99}
	qbuckets := make([]bucket, len(phis))
	var qs []float64
	countMismatches := 0
	queries := 0

	for trial := 0; trial < trials; trial++ {
		r := rng.New(master.Uint64())
		var now int64
		wreg, err := req.NewWindowedRegistryFloat64(
			req.WithEpsilon(eps), req.WithSeed(master.Uint64()),
			req.WithWindow(slots, slot),
			req.WithClock(func() int64 { return now }))
		if err != nil {
			return err
		}
		// ring[i] holds the exact items of epoch tagged ring[i].ep.
		type epochItems struct {
			ep   int64
			vals []float64
		}
		ring := make([]epochItems, slots)
		for i := range ring {
			ring[i].ep = -1
		}
		const key = "svc"
		for ep := 0; ep < epochs; ep++ {
			now = int64(ep) * int64(slot)
			slotIdx := ep % slots
			ring[slotIdx] = epochItems{ep: int64(ep), vals: ring[slotIdx].vals[:0]}
			for j := 0; j < perEpoch; j++ {
				// Drifting uniform stream: the window's value range moves,
				// so stale-slot leakage would be visible as rank error.
				v := float64(ep)*1e6 + r.Float64()*5e6
				wreg.Update(key, v)
				ring[slotIdx].vals = append(ring[slotIdx].vals, v)
			}
			if ep < slots-1 {
				continue // window not yet full
			}
			// Exact live window at this instant.
			var live []float64
			for i := range ring {
				if ring[i].ep >= 0 && int64(ep)-ring[i].ep < int64(slots) {
					live = append(live, ring[i].vals...)
				}
			}
			oracle := exact.FromValues(live)
			if got, want := wreg.Count(key), oracle.N(); got != want {
				countMismatches++
			}
			queries++
			n := oracle.N()
			for i, f := range fracs {
				rank := uint64(f * float64(n))
				if rank == 0 {
					rank = 1
				}
				y := oracle.ItemOfRank(rank)
				est, err := wreg.Rank(key, y)
				if err != nil {
					return err
				}
				truth := oracle.Rank(y)
				buckets[i].errs = append(buckets[i].errs, stats.RelErr(float64(est), float64(truth)))
			}
			if qs, err = wreg.QuantilesInto(key, qs, phis); err != nil {
				return err
			}
			for i, phi := range phis {
				// The answer's exact ranks span (RankExclusive, Rank]; its
				// error is how far φn falls outside that span, relative to φn.
				target := phi * float64(n)
				lo, hi := float64(oracle.RankExclusive(qs[i])), float64(oracle.Rank(qs[i]))
				miss := max(lo-target, target-hi, 0)
				qbuckets[i].errs = append(qbuckets[i].errs, miss/target)
			}
		}
	}

	tab := NewTable("window_frac", "relerr_p50", "relerr_p95", "relerr_max", "within_eps")
	violations := 0
	for i, f := range fracs {
		errs := buckets[i].errs
		sort.Float64s(errs)
		p50 := stats.Percentile(errs, 0.50)
		p95 := stats.Percentile(errs, 0.95)
		max := stats.MaxFloat(errs)
		ok := "yes"
		if p95 > eps {
			ok = "NO"
			violations++
		}
		tab.AddRow(f, p50, p95, max, ok)
	}
	tab.Fprint(w)
	fmt.Fprintf(w, "\nQuantilesInto answers against the exact window:\n")
	qtab := NewTable("phi", "relerr_p50", "relerr_p95", "relerr_max", "within_eps")
	qviolations := 0
	for i, phi := range phis {
		errs := qbuckets[i].errs
		sort.Float64s(errs)
		p95 := stats.Percentile(errs, 0.95)
		ok := "yes"
		if p95 > eps {
			ok = "NO"
			qviolations++
		}
		qtab.AddRow(phi, stats.Percentile(errs, 0.50), p95, stats.MaxFloat(errs), ok)
	}
	qtab.Fprint(w)
	fmt.Fprintf(w, "\nquery points: %d; exact-count mismatches: %d; fracs with p95 above ε: %d/%d; quantiles with p95 above ε: %d/%d\n",
		queries, countMismatches, violations, len(fracs), qviolations, len(phis))
	if countMismatches > 0 {
		return fmt.Errorf("windowed Count diverged from the exact window at %d query points", countMismatches)
	}
	return nil
}
