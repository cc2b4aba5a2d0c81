package main

import (
	"errors"
	"fmt"
	"time"

	req "req"
)

// windowP99 is the monitoring read path: per-key p50/p90/p99 over a
// trailing window, read by a dashboard that cycles through the hottest keys
// while flush-shaped traffic keeps arriving and the window keeps rotating.
// One operation is one windowed QuantilesInto call.
//
// The traffic follows examples/slo, the repository's SLO dashboard: a
// window of 5 one-minute slots, about 40,000 pairs a minute, and four
// dashboard reads a minute, so 40 batches of 256 pairs (10,240 pairs)
// arrive before each read. With the registry rigs' skew (gen.go) the 8 hot
// keys of 8192 each take about 4,100 values per slot, inside the range of
// the keys examples/slo reads (3,200 to 12,900 a minute).
type windowP99 struct {
	cfg    config
	keys   []string
	reg    *req.WindowedRegistryFloat64
	now    int64 // the registry's clock, advanced by the benchmark
	stream *keyedStream
	ks     []string
	vs     []float64
	dst    []float64
	ops    int
	order  []int // dashboard read order over the hot keys
	// setupSlots holds the values set-up ingests into each slot.
	setupSlots []pairs
	// exact keeps every value sent to each sampled key, by epoch.
	exact map[int]map[int64][]float64
}

// pairs is a batch of keyed values.
type pairs struct {
	ks []string
	vs []float64
}

const (
	windowKeys           = 1 << 13
	windowPassOps        = 512
	windowSlots          = 5
	windowSlot           = time.Minute
	windowReadsPerSlot   = 4
	windowBatchesPerRead = 40
	// windowTick is the clock advance per ingest batch.
	windowTick = windowSlot / (windowReadsPerSlot * windowBatchesPerRead)
)

func newWindowP99(cfg config) workload {
	w := &windowP99{
		cfg:   cfg,
		keys:  keyNames(windowKeys),
		ks:    make([]string, ingestBatch),
		vs:    make([]float64, ingestBatch),
		exact: map[int]map[int64][]float64{},
	}
	g := newGen(cfg.seed, 2)
	w.stream = newKeyedStream(g, w.keys)
	w.order = g.r.Perm(w.stream.hot)
	// Set-up fills every slot but the current one, as a minute of traffic
	// would, and gives every key a value in each; the clock starts at 0 and
	// the first operation finds the current slot empty.
	perSlot := windowReadsPerSlot * windowBatchesPerRead * ingestBatch
	w.setupSlots = make([]pairs, windowSlots-1)
	for s := range w.setupSlots {
		record := func(k int, v float64) { w.recordAt(k, int64(s), v) }
		ks, vs := populate(g, w.keys, 1, record)
		n := len(ks)
		ks, vs = append(ks, make([]string, perSlot)...), append(vs, make([]float64, perSlot)...)
		w.stream.fill(ks[n:], vs[n:], record)
		w.setupSlots[s] = pairs{ks, vs}
	}
	return w
}

func (w *windowP99) epoch() int64 { return w.now / int64(windowSlot) }

func (w *windowP99) record(k int, v float64) { w.recordAt(k, w.epoch(), v) }

func (w *windowP99) recordAt(k int, ep int64, v float64) {
	if !sampleKey(k) {
		return
	}
	m := w.exact[k]
	if m == nil {
		m = map[int64][]float64{}
		w.exact[k] = m
	}
	m[ep] = append(m[ep], v)
	delete(m, ep-windowSlots) // out of the window for good
}

// ingest sends one batch and advances the clock by one tick.
func (w *windowP99) ingest() {
	w.stream.fill(w.ks, w.vs, w.record)
	tr := w.cfg.tr
	tr.begin("pairs")
	w.reg.UpdatePairs(w.ks, w.vs)
	tr.end()
	tr.add("pairs_items", float64(len(w.ks)))
	w.now += int64(windowTick)
}

// setup ingests the set-up slots, one minute of the clock apart.
func (w *windowP99) setup() error {
	opts := append(keyedOptions(w.cfg.seed),
		req.WithWindow(windowSlots, windowSlot),
		req.WithClock(func() int64 { return w.now }))
	reg, err := req.NewWindowedRegistryFloat64(opts...)
	if err != nil {
		return err
	}
	for _, slot := range w.setupSlots {
		for off := 0; off < len(slot.ks); off += ingestBatch {
			end := min(off+ingestBatch, len(slot.ks))
			reg.UpdatePairs(slot.ks[off:end], slot.vs[off:end])
		}
		w.now += int64(windowSlot)
	}
	if reg.Len() != len(w.keys) {
		return fmt.Errorf("registry holds %d keys after set-up, want %d", reg.Len(), len(w.keys))
	}
	w.reg = reg
	return nil
}

func (w *windowP99) release() { w.reg = nil }

func (w *windowP99) next() error {
	for i := 0; i < windowBatchesPerRead; i++ {
		w.ingest()
	}
	w.ops++
	return nil
}

func (w *windowP99) op() error {
	key := w.keys[w.order[w.ops%len(w.order)]]
	tr := w.cfg.tr
	tr.begin("window_query")
	var err error
	w.dst, err = w.reg.QuantilesInto(key, w.dst, dashboardPhis)
	tr.end()
	return err
}

// verify checks every sampled key's windowed count and quantiles against
// the exact values of the epochs still inside the window.
func (w *windowP99) verify() error {
	ep := w.epoch()
	tr := w.cfg.tr
	for k, byEpoch := range w.exact {
		key := w.keys[k]
		var exact []float64
		for e, vs := range byEpoch {
			if ep-e < windowSlots {
				exact = append(exact, vs...)
			}
		}
		if n := w.reg.Count(key); n != uint64(len(exact)) {
			return fmt.Errorf("key %s counts %d items in its window, sent %d", key, n, len(exact))
		}
		tr.begin("window_query")
		got, err := w.reg.QuantilesInto(key, nil, dashboardPhis)
		tr.end()
		if len(exact) == 0 {
			if !errors.Is(err, req.ErrEmpty) {
				return fmt.Errorf("key %s: empty window answered %v, %v", key, got, err)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("key %s: %w", key, err)
		}
		if err := checkAnswers("windowed key "+key, exact, dashboardPhis, got); err != nil {
			return err
		}
	}
	return nil
}
