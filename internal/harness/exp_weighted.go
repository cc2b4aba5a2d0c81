package harness

import (
	"fmt"
	"io"
	"math"

	"req/internal/core"
	"req/internal/exact"
	"req/internal/quantile"
	"req/internal/rng"
	"req/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "E15",
		Title:    "Weighted updates (library extension): histogram ingest ≡ raw replay",
		PaperRef: "extension beyond the paper (binary weight decomposition: a weight-w item enters level h once per set bit h of w)",
		Run:      runE15,
	})
}

func runE15(w io.Writer, cfg Config) error {
	buckets := 2000
	maxWeight := 200
	trials := 6
	if cfg.Quick {
		buckets = 400
		maxWeight = 50
		trials = 2
	}
	const eps = 0.05
	fmt.Fprintf(w, "%d histogram buckets, weights ≤ %d, ε=%.2f, %d trials\n", buckets, maxWeight, eps, trials)
	fmt.Fprintf(w, "weighted ingest must match raw replay of the expanded stream within ε\n\n")

	master := rng.New(cfg.Seed + 15)
	type agg struct{ weighted, raw []float64 }
	perRank := map[string]*agg{}
	ranksAt := []float64{0.01, 0.1, 0.5, 0.9, 0.99}
	for _, p := range ranksAt {
		perRank[fmt.Sprint(p)] = &agg{}
	}
	var weightedItems, rawItems float64
	for trial := 0; trial < trials; trial++ {
		seed := master.Uint64()
		r := rng.New(seed)
		values := make([]float64, buckets)
		weights := make([]uint64, buckets)
		var expanded []float64
		for i := range values {
			values[i] = r.Float64() * 1e6
			weights[i] = uint64(1 + r.Intn(maxWeight))
			for j := uint64(0); j < weights[i]; j++ {
				expanded = append(expanded, values[i])
			}
		}
		oracle := exact.FromValues(expanded)
		n := oracle.N()

		weighted, err := quantile.NewREQ(core.Config{Eps: eps, Delta: 0.05, Seed: seed}, "req-weighted")
		if err != nil {
			return err
		}
		for i := range values {
			if err := weighted.Core().UpdateWeighted(values[i], weights[i]); err != nil {
				return err
			}
		}
		raw, err := quantile.NewREQ(core.Config{Eps: eps, Delta: 0.05, Seed: seed + 1}, "req-raw")
		if err != nil {
			return err
		}
		for _, v := range expanded {
			raw.Update(v)
		}
		if weighted.N() != n || raw.N() != n {
			return fmt.Errorf("weight conservation broken: %d / %d vs %d", weighted.N(), raw.N(), n)
		}
		for _, p := range ranksAt {
			rank := uint64(math.Ceil(p * float64(n)))
			if rank == 0 {
				rank = 1
			}
			y := oracle.ItemOfRank(rank)
			truth := float64(oracle.Rank(y))
			a := perRank[fmt.Sprint(p)]
			a.weighted = append(a.weighted, stats.RelErr(float64(weighted.Rank(y)), truth))
			a.raw = append(a.raw, stats.RelErr(float64(raw.Rank(y)), truth))
		}
		weightedItems += float64(weighted.ItemsRetained()) / float64(trials)
		rawItems += float64(raw.ItemsRetained()) / float64(trials)
	}

	tab := NewTable("norm_rank", "weighted_p95", "raw_p95", "within_eps")
	for _, p := range ranksAt {
		a := perRank[fmt.Sprint(p)]
		ws := stats.Summarize(a.weighted)
		rs := stats.Summarize(a.raw)
		ok := "yes"
		if ws.P95 > eps || rs.P95 > eps {
			ok = "NO"
		}
		tab.AddRow(p, ws.P95, rs.P95, ok)
	}
	tab.Fprint(w)
	fmt.Fprintf(w, "\nfootprints: weighted %.0f items vs raw %.0f (weighted inserts high-weight\n", weightedItems, rawItems)
	fmt.Fprintf(w, "items directly at high levels, skipping redundant low-level churn)\n")
	return nil
}
