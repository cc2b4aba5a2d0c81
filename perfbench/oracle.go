package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// dashboardPhis are the ranks every dashboard read asks for.
var dashboardPhis = []float64{0.5, 0.9, 0.99}

// maxRelRankErr bounds the rank error of a checked answer, relative to the
// number of items above the asked rank (n − φn): every sketch in the
// benchmark runs in high-rank-accuracy mode, whose guarantee is relative to
// that tail. The sketches' observed error sits well below this; an answer
// from the wrong key, slot or window misses it by a wide margin.
const maxRelRankErr = 0.1

// sampleKey reports whether key index k is one whose every value the
// benchmark keeps for the oracle check. Index 0 is a hot key.
func sampleKey(k int) bool { return k%509 == 0 }

// checkAnswers compares quantile answers got[i] for phis[i] against the
// exact values, returning an error naming the first answer whose true rank
// interval lies further from φn than the bound allows. exact is sorted in
// place.
func checkAnswers(what string, exact []float64, phis, got []float64) error {
	n := len(exact)
	if n == 0 {
		return fmt.Errorf("%s: no exact values to check against", what)
	}
	slices.Sort(exact)
	for i, phi := range phis {
		q := got[i]
		lo := sort.SearchFloat64s(exact, q) // items < q
		hi := lo
		for hi < n && exact[hi] == q {
			hi++
		}
		if hi == lo {
			return fmt.Errorf("%s: answer %v for phi=%v is not an ingested value", what, q, phi)
		}
		target := phi * float64(n)
		dist := 0.0
		switch {
		case target < float64(lo):
			dist = float64(lo) - target
		case target > float64(hi):
			dist = target - float64(hi)
		}
		tail := math.Max(float64(n)-target, 1)
		if dist > maxRelRankErr*tail+1 {
			return fmt.Errorf("%s: phi=%v answer %v has rank [%d,%d] of %d, %.1f from target (bound %.1f)",
				what, phi, q, lo, hi, n, dist, maxRelRankErr*tail+1)
		}
	}
	return nil
}

// sameAnswers reports an error when two answer vectors differ in any bit.
func sameAnswers(what string, want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("%s: answer %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}
