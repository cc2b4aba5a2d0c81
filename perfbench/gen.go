package main

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// gen makes every input of a run from the run's seed: key names, latency-
// shaped values, and flush-shaped keyed batches. The library sees only the
// generated slices.
type gen struct {
	r *rand.Rand
}

func newGen(seed, stream uint64) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, stream))}
}

// keyNames returns n distinct tenant keys, allocated once so that no
// measured call formats a key.
func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%07d", i)
	}
	return keys
}

// latency draws one request latency in microseconds for key index k: a
// log-normal body whose scale depends on the key, so that a value routed to
// the wrong key shifts that key's quantiles and fails the oracle check.
func (g *gen) latency(k int) float64 {
	return math.Exp(5+0.8*g.r.NormFloat64()) * (1 + float64(k%8)/4)
}

// keyedStream produces flush-shaped traffic over a key population: each
// draw picks a key (hotShare of draws go to the first hotFrac of keys, the
// rest uniformly) and emits runLen consecutive values for it, the shape an
// upstream per-key buffer flushes. The three figures are those of the
// repository's registry rigs: the hot-key skew of BENCH_pr9.json and
// BENCH_pr10.json (80% of draws on 0.1% of keys) and the flush regime of
// BENCH_pr10.json (run_len 8).
type keyedStream struct {
	g       *gen
	keys    []string
	hot     int
	pending int // values left in the current run
	cur     int // key index of the current run
}

const (
	hotFrac  = 0.001
	hotShare = 0.8
	runLen   = 8
)

func newKeyedStream(g *gen, keys []string) *keyedStream {
	return &keyedStream{g: g, keys: keys, hot: max(1, int(float64(len(keys))*hotFrac))}
}

// fill writes the next len(ks) pairs into ks/vs and calls seen for each
// pair, so the caller can keep an exact oracle of what it sent.
func (s *keyedStream) fill(ks []string, vs []float64, seen func(k int, v float64)) {
	for i := range ks {
		if s.pending == 0 {
			if s.g.r.Float64() < hotShare {
				s.cur = s.g.r.IntN(s.hot)
			} else {
				s.cur = s.g.r.IntN(len(s.keys))
			}
			s.pending = runLen
		}
		s.pending--
		v := s.g.latency(s.cur)
		ks[i], vs[i] = s.keys[s.cur], v
		if seen != nil {
			seen(s.cur, v)
		}
	}
}
