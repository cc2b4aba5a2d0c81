package main

import (
	"fmt"

	req "req"
)

// keyedOptions shapes every per-key sketch: small sections (the
// multi-tenant regime, where the population is the cost) in high-rank-
// accuracy mode (the p99 dashboard regime).
func keyedOptions(seed uint64) []req.Option {
	return []req.Option{req.WithK(16), req.WithHighRankAccuracy(), req.WithSeed(seed)}
}

// keyedIngest is the wire-ingest path: flush-shaped (key, value) batches
// into a registry with every key already resident. One operation is one
// UpdatePairs call.
type keyedIngest struct {
	cfg    config
	keys   []string
	reg    *req.RegistryFloat64
	stream *keyedStream
	ks     []string
	vs     []float64
	// setupKs/setupVs give every key setupPerKey values at set-up.
	setupKs []string
	setupVs []float64
	exact   map[int][]float64 // every value sent to each sampled key
}

const (
	ingestKeys    = 1 << 16
	ingestPassOps = 16384
	ingestBatch   = 256
	setupPerKey   = 4
)

func newKeyedIngest(cfg config) workload {
	w := &keyedIngest{
		cfg:   cfg,
		keys:  keyNames(ingestKeys),
		ks:    make([]string, ingestBatch),
		vs:    make([]float64, ingestBatch),
		exact: map[int][]float64{},
	}
	g := newGen(cfg.seed, 1)
	w.setupKs, w.setupVs = populate(g, w.keys, setupPerKey, w.record)
	w.stream = newKeyedStream(g, w.keys)
	return w
}

// populate returns perKey values for every key in key order, recording each
// through seen.
func populate(g *gen, keys []string, perKey int, seen func(int, float64)) ([]string, []float64) {
	ks := make([]string, 0, len(keys)*perKey)
	vs := make([]float64, 0, len(keys)*perKey)
	for k, key := range keys {
		for j := 0; j < perKey; j++ {
			v := g.latency(k)
			ks, vs = append(ks, key), append(vs, v)
			seen(k, v)
		}
	}
	return ks, vs
}

func (w *keyedIngest) record(k int, v float64) {
	if sampleKey(k) {
		w.exact[k] = append(w.exact[k], v)
	}
}

func (w *keyedIngest) setup() error {
	reg, err := req.NewRegistryFloat64(keyedOptions(w.cfg.seed)...)
	if err != nil {
		return err
	}
	for off := 0; off < len(w.setupKs); off += ingestBatch {
		end := min(off+ingestBatch, len(w.setupKs))
		reg.UpdatePairs(w.setupKs[off:end], w.setupVs[off:end])
	}
	if reg.Len() != len(w.keys) {
		return fmt.Errorf("registry holds %d keys after set-up, want %d", reg.Len(), len(w.keys))
	}
	w.reg = reg
	return nil
}

func (w *keyedIngest) release() { w.reg = nil }

func (w *keyedIngest) next() error {
	w.stream.fill(w.ks, w.vs, w.record)
	return nil
}

func (w *keyedIngest) op() error {
	tr := w.cfg.tr
	tr.begin("pairs")
	w.reg.UpdatePairs(w.ks, w.vs)
	tr.end()
	tr.add("pairs_items", float64(len(w.ks)))
	return nil
}

// verify checks every sampled key's count and dashboard quantiles against
// the exact values.
func (w *keyedIngest) verify() error {
	tr := w.cfg.tr
	for k, exact := range w.exact {
		key := w.keys[k]
		if n := w.reg.Count(key); n != uint64(len(exact)) {
			return fmt.Errorf("key %s counts %d items, sent %d", key, n, len(exact))
		}
		tr.begin("live_query")
		got, err := w.reg.QuantilesInto(key, nil, dashboardPhis)
		tr.end()
		if err != nil {
			return fmt.Errorf("key %s: %w", key, err)
		}
		if err := checkAnswers("key "+key, exact, dashboardPhis, got); err != nil {
			return err
		}
	}
	return nil
}
