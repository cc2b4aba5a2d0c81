package main

import (
	"fmt"
	"os"
	"path/filepath"

	req "req"
)

// checkpoint is the checkpoint-and-restore path of a running service.
// Between checkpoints keyed traffic keeps arriving; each checkpoint encodes
// the keyed registry and a frozen all-keys snapshot, decodes both back and
// answers a first read from each. One operation is one such cycle, in
// memory: on a shared disk, fsync latency swings several-fold from minute
// to minute and would drown the library's own cost. The durable path —
// SaveRegistry, OpenRegistryFloat64, SaveSnapshot and the memory-mapped
// OpenSnapshotFloat64 — runs at the end of every run, where its answers
// are checked, and in traced runs once per cycle outside the operation.
type checkpoint struct {
	cfg     config
	keys    []string
	reg     *req.RegistryFloat64
	all     *req.Float64 // every value of every key
	stream  *keyedStream
	ks      []string
	vs      []float64
	setupKs []string
	setupVs []float64
	ops     int
	// qkey is the key the restored registry is first asked about; want
	// and wantAll are the live answers the restored ones must equal.
	qkey    string
	want    []float64
	wantAll []float64
	got     []float64
	gotAll  []float64
	checked bool // the last operation's answers were compared
}

const (
	checkpointKeys    = 1 << 11
	checkpointPerKey  = 64
	checkpointPassOps = 64
	rawEvery          = 16
)

func newCheckpoint(cfg config) workload {
	w := &checkpoint{
		cfg:     cfg,
		keys:    keyNames(checkpointKeys),
		ks:      make([]string, ingestBatch),
		vs:      make([]float64, ingestBatch),
		checked: true,
	}
	g := newGen(cfg.seed, 5)
	w.setupKs, w.setupVs = populate(g, w.keys, checkpointPerKey, func(int, float64) {})
	w.stream = newKeyedStream(g, w.keys)
	return w
}

func (w *checkpoint) setup() error {
	reg, err := req.NewRegistryFloat64(keyedOptions(w.cfg.seed)...)
	if err != nil {
		return err
	}
	all, err := req.NewFloat64(req.WithHighRankAccuracy(), req.WithSeed(w.cfg.seed))
	if err != nil {
		return err
	}
	for off := 0; off < len(w.setupKs); off += ingestBatch {
		end := min(off+ingestBatch, len(w.setupKs))
		reg.UpdatePairs(w.setupKs[off:end], w.setupVs[off:end])
	}
	all.UpdateBatch(w.setupVs)
	if reg.Len() != len(w.keys) {
		return fmt.Errorf("registry holds %d keys after set-up, want %d", reg.Len(), len(w.keys))
	}
	w.reg, w.all = reg, all
	return nil
}

// next compares the last checkpoint's restored answers with the live ones,
// feeds one batch of traffic, and takes the live answers the next
// checkpoint must reproduce.
func (w *checkpoint) next() error {
	if err := w.compare(); err != nil {
		return err
	}
	tr := w.cfg.tr
	w.stream.fill(w.ks, w.vs, nil)
	tr.begin("pairs")
	w.reg.UpdatePairs(w.ks, w.vs)
	tr.end()
	tr.add("pairs_items", float64(len(w.ks)))
	w.all.UpdateBatch(w.vs)

	w.qkey = w.ks[0]
	var err error
	tr.begin("live_query")
	w.want, err = w.reg.QuantilesInto(w.qkey, w.want, dashboardPhis)
	tr.end()
	if err != nil {
		return err
	}
	if w.wantAll, err = w.all.QuantilesInto(w.wantAll, dashboardPhis); err != nil {
		return err
	}
	if tr != nil {
		if err := w.durable(); err != nil {
			return err
		}
	}
	w.ops++
	w.checked = false
	return nil
}

func (w *checkpoint) op() error {
	tr := w.cfg.tr
	tr.begin("encode")
	blob, err := w.reg.MarshalBinary()
	tr.end()
	if err != nil {
		return err
	}
	tr.add("encode_bytes", float64(len(blob)))
	tr.begin("decode")
	rs, err := req.UnmarshalRegistryFloat64(blob)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("first_query")
	sn, ok := rs.Get(w.qkey)
	if ok {
		w.got, err = sn.QuantilesInto(w.got, dashboardPhis)
	}
	tr.end()
	if !ok {
		return fmt.Errorf("restored registry lost key %s", w.qkey)
	}
	if err != nil {
		return err
	}

	tr.begin("freeze")
	snap := w.all.Snapshot()
	tr.end()
	tr.begin("snap_encode")
	blob, err = snap.MarshalBinary()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("snap_decode")
	restored, err := req.UnmarshalSnapshotFloat64(blob)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("frozen_query")
	w.gotAll, err = restored.QuantilesInto(w.gotAll, dashboardPhis)
	tr.end()
	return err
}

// compare checks the last checkpoint's restored answers against the live
// answers taken just before it.
func (w *checkpoint) compare() error {
	if w.checked {
		return nil
	}
	w.checked = true
	if err := sameAnswers("restored key "+w.qkey, w.want, w.got); err != nil {
		return err
	}
	return sameAnswers("restored all-keys snapshot", w.wantAll, w.gotAll)
}

// durable saves the registry and the all-keys snapshot as crash-safe
// generations, reopens both (the snapshot memory-mapped), and checks their
// first answers against the live ones taken by next. Every rawEvery-th
// call of a traced run also writes the registry's bytes with a plain write
// and fsync, the disk's own speed to read save_MBps against.
func (w *checkpoint) durable() error {
	tr := w.cfg.tr
	if tr != nil {
		blob, err := w.reg.MarshalBinary()
		if err != nil {
			return err
		}
		tr.add("save_bytes", float64(len(blob)))
		if w.ops%rawEvery == 0 {
			tr.begin("raw_write")
			err = writeSynced(filepath.Join(w.cfg.dir, "raw"), blob)
			tr.end()
			if err != nil {
				return err
			}
			tr.add("raw_bytes", float64(len(blob)))
		}
	}
	regDir := filepath.Join(w.cfg.dir, "registry")
	tr.begin("save")
	_, err := w.reg.SaveRegistry(regDir)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("open")
	rs, err := req.OpenRegistryFloat64(regDir)
	tr.end()
	if err != nil {
		return err
	}
	sn, ok := rs.Get(w.qkey)
	if !ok {
		return fmt.Errorf("reopened registry lost key %s", w.qkey)
	}
	got, err := sn.QuantilesInto(nil, dashboardPhis)
	if err != nil {
		return err
	}
	if err := sameAnswers("reopened key "+w.qkey, w.want, got); err != nil {
		return err
	}

	snapDir := filepath.Join(w.cfg.dir, "snapshot")
	tr.begin("snap_save")
	_, err = w.all.Snapshot().SaveSnapshot(snapDir)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("mmap_open")
	m, err := req.OpenSnapshotFloat64(snapDir)
	tr.end()
	if err != nil {
		return err
	}
	defer m.Close()
	tr.begin("mmap_query")
	got, err = m.QuantilesInto(nil, dashboardPhis)
	tr.end()
	if err != nil {
		return err
	}
	return sameAnswers("mapped all-keys snapshot", w.wantAll, got)
}

// verify checks the last cycle's answers, then the durable path once.
func (w *checkpoint) verify() error {
	if err := w.compare(); err != nil {
		return err
	}
	if w.qkey == "" { // the run ended before this pass's first cycle
		return nil
	}
	return w.durable()
}

func (w *checkpoint) release() { w.reg, w.all = nil, nil }

// writeSynced writes data to path and syncs it to the disk.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
