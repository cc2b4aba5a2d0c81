package main

import (
	"fmt"
	"path/filepath"

	req "req"
)

// singleStream is the engine on its own: one sketch fed item by item, with
// a dashboard read after every chunk, so every read finds the sorted view
// stale. A chunk that ran no compaction leaves the view repairable and one
// that did forces a rebuild. With 64-item chunks about a quarter of the
// reads rebuild, so the median operation repairs and the 90th percentile
// rebuilds, each well away from the share where the two meet. One
// operation is streamChunk Update calls followed by one QuantilesInto.
type singleStream struct {
	cfg    config
	g      *gen
	sk     *req.Float64
	setupV []float64
	chunk  []float64
	dst    []float64
	exact  []float64 // every value ingested
}

const (
	streamSetupItems = 1 << 20
	streamChunk      = 64
	streamPassOps    = 4096
)

func newSingleStream(cfg config) workload {
	w := &singleStream{
		cfg:    cfg,
		g:      newGen(cfg.seed, 4),
		setupV: make([]float64, streamSetupItems),
		chunk:  make([]float64, streamChunk),
	}
	for i := range w.setupV {
		w.setupV[i] = w.g.latency(0)
	}
	w.exact = append(make([]float64, 0, streamSetupItems+streamPassOps*streamChunk), w.setupV...)
	return w
}

func (w *singleStream) setup() error {
	sk, err := req.NewFloat64(req.WithHighRankAccuracy(), req.WithSeed(w.cfg.seed))
	if err != nil {
		return err
	}
	sk.UpdateBatch(w.setupV)
	if sk.Count() != uint64(len(w.setupV)) {
		return fmt.Errorf("sketch counts %d items after set-up, want %d", sk.Count(), len(w.setupV))
	}
	w.sk = sk
	return nil
}

func (w *singleStream) release() { w.sk = nil }

func (w *singleStream) next() error {
	for i := range w.chunk {
		w.chunk[i] = w.g.latency(0)
	}
	w.exact = append(w.exact, w.chunk...)
	return nil
}

func (w *singleStream) op() error {
	tr := w.cfg.tr
	read := "view_repair"
	if tr == nil {
		for _, v := range w.chunk {
			w.sk.Update(v)
		}
	} else {
		// An Update that leaves the retained count anything but one higher
		// ran a compaction; its span is relabelled so append and compaction
		// time are reported apart, and the read after it rebuilds the view.
		retained := w.sk.ItemsRetained()
		for _, v := range w.chunk {
			tr.begin("append")
			w.sk.Update(v)
			r := w.sk.ItemsRetained()
			if r != retained+1 {
				tr.rename("compact")
				read = "view_rebuild"
			}
			tr.end()
			retained = r
		}
		tr.add("update_items", float64(len(w.chunk)))
	}
	tr.begin(read)
	var err error
	w.dst, err = w.sk.QuantilesInto(w.dst, dashboardPhis)
	tr.end()
	return err
}

// verify checks the count and the dashboard quantiles against the exact
// stream, then freezes the sketch, saves the snapshot, reopens it through
// the memory-mapped path, and checks that both answer bit-identically to the
// live sketch.
func (w *singleStream) verify() error {
	tr := w.cfg.tr
	if n := w.sk.Count(); n != uint64(len(w.exact)) {
		return fmt.Errorf("sketch counts %d items, sent %d", n, len(w.exact))
	}
	tr.begin("live_query")
	live, err := w.sk.QuantilesInto(nil, dashboardPhis)
	tr.end()
	if err != nil {
		return err
	}
	if err := checkAnswers("stream", w.exact, dashboardPhis, live); err != nil {
		return err
	}
	tr.begin("freeze")
	sn := w.sk.Snapshot()
	tr.end()
	tr.begin("frozen_query")
	got, err := sn.QuantilesInto(nil, dashboardPhis)
	tr.end()
	if err != nil {
		return err
	}
	if err := sameAnswers("snapshot", live, got); err != nil {
		return err
	}
	return checkMapped(tr, sn, live, filepath.Join(w.cfg.dir, "snapshot"))
}

// checkMapped saves sn into dir, reopens it memory-mapped, and checks that
// the first answer matches want bit for bit.
func checkMapped(tr *tracer, sn *req.SnapshotFloat64, want []float64, dir string) error {
	tr.begin("snap_save")
	_, err := sn.SaveSnapshot(dir)
	tr.end()
	if err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	tr.begin("mmap_open")
	m, err := req.OpenSnapshotFloat64(dir)
	tr.end()
	if err != nil {
		return fmt.Errorf("open snapshot: %w", err)
	}
	defer m.Close()
	tr.begin("mmap_query")
	got, err := m.QuantilesInto(nil, dashboardPhis)
	tr.end()
	if err != nil {
		return fmt.Errorf("mapped snapshot: %w", err)
	}
	return sameAnswers("mapped snapshot", want, got)
}
