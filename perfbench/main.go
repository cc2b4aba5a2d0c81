// Command perfbench is the repository's end-to-end benchmark: it drives the
// library through its public API on one workload, checks every answer it
// gets against an exact oracle or a bit-identical reference, and prints one
// JSON result line. perfbench/run.py builds and runs it; see
// perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// workload is one input mix. setup builds the system under test from
// scratch and is timed as setup_s; next prepares the next operation's
// inputs and feeds any background traffic, untimed; op is the operation
// whose latency is measured; verify checks the system's final state;
// release drops every reference to the system, so that the heap it held
// can be measured.
type workload interface {
	setup() error
	next() error
	op() error
	verify() error
	release()
}

type config struct {
	seed uint64
	dir  string // scratch directory for files the workload writes
	tr   *tracer
}

// A run is a sequence of passes. Each pass builds the system from scratch
// and replays the same passOps operations on the same inputs, so the state
// an operation meets does not depend on how fast earlier operations ran,
// and every pass times one more set-up.
type workloadDef struct {
	mk      func(config) workload
	passOps int
}

var workloads = map[string]workloadDef{
	"keyed_ingest":  {newKeyedIngest, ingestPassOps},
	"window_p99":    {newWindowP99, windowPassOps},
	"single_stream": {newSingleStream, streamPassOps},
	"checkpoint":    {newCheckpoint, checkpointPassOps},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	dir := flag.String("dir", "", "scratch directory (removed on exit)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, dir string) error {
	def, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := measure(def, seed, dir, tr, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	if len(r.lat) == 0 {
		return fmt.Errorf("no operation completed")
	}
	res := result{Correct: true, Attempted: len(r.lat), Failed: r.failed, Metrics: map[string]metric{}}
	if r.wrong == nil {
		r.wrong = r.w.verify()
	}
	if r.wrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", r.wrong)
		res.Correct = false
	}

	p50 := r.passPercentile(0.50)
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{m.value(tr, p50), m.unit}
		}
	} else {
		slices.Sort(r.setups)
		res.Metrics["op_p50_us"] = metric{p50, "us"}
		res.Metrics["op_p90_us"] = metric{r.passPercentile(0.90), "us"}
		res.Metrics["setup_s"] = metric{r.setups[len(r.setups)/2], "s"}
		res.Metrics["resident_mb"] = metric{r.resident / 1e6, "MB"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d passes=%d ops=%d failed=%d\n",
		name, seed, len(r.setups), len(r.lat), r.failed)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runStats is what one run measured.
type runStats struct {
	w        workload        // the last pass's workload
	setups   []float64       // every timed pass's set-up duration in seconds
	lat      []time.Duration // every timed operation's latency
	passEnds []int           // len(lat) at the end of each complete timed pass
	failed   int             // timed operations that returned an error
	resident float64         // heap bytes the system held at the end of pass 0
	wrong    error           // a wrong answer found while the run was going
}

// measure runs passes until run has elapsed: pass 0 warms caches and the
// allocator untimed, and every later pass's set-up and operations are
// timed. The system's heap is measured at the end of pass 0, the one pass
// that always runs to completion. An operation that returns an error counts
// as failed; an error from next is a wrong answer and ends the run.
func measure(def workloadDef, seed uint64, dir string, tr *tracer, run time.Duration) (*runStats, error) {
	r := &runStats{}
	var start time.Time
	for pass := 0; ; pass++ {
		passDir := filepath.Join(dir, fmt.Sprint(pass))
		if err := os.Mkdir(passDir, 0o755); err != nil {
			return nil, err
		}
		r.w = def.mk(config{seed: seed, dir: passDir, tr: tr})
		runtime.GC()
		tr.pause(true) // set-up is its own metric
		t0 := time.Now()
		err := r.w.setup()
		d := time.Since(t0)
		tr.pause(false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if pass > 0 {
			r.setups = append(r.setups, d.Seconds())
		}
		if pass == 1 {
			tr.reset() // the warm-up pass's spans are not the measured run's
			start = time.Now()
		}
		for i := 0; i < def.passOps; i++ {
			if pass > 0 && time.Since(start) >= run {
				return r, nil
			}
			if err := r.w.next(); err != nil {
				r.wrong = err
				return r, nil
			}
			tr.beginOp()
			t0 := time.Now()
			err := r.w.op()
			d := time.Since(t0)
			tr.endOp()
			if pass == 0 {
				if err != nil {
					return nil, fmt.Errorf("warm-up operation: %w", err)
				}
				continue
			}
			r.lat = append(r.lat, d)
			if err != nil {
				r.failed++
			}
		}
		if pass == 0 {
			r.resident = heapHeldBy(r.w)
		} else {
			r.passEnds = append(r.passEnds, len(r.lat))
		}
		if err := os.RemoveAll(passDir); err != nil {
			return nil, err
		}
	}
}

// heapHeldBy returns how many live heap bytes go away when w releases its
// system.
func heapHeldBy(w workload) float64 {
	live := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := live()
	w.release()
	return before - live()
}

// passPercentile returns the p-quantile latency of each complete timed pass
// averaged over the passes, in microseconds, or that of all timed
// operations when no pass completed. Every pass replays the same
// operations, so the passes differ only in how fast the machine ran them.
// On a shared machine the speed flips between a fast and a slow state that
// last seconds to minutes; the mean moves with the share of time spent in
// each, where the smallest or the middle pass jumps from one state to the
// other from run to run.
func (r *runStats) passPercentile(p float64) float64 {
	ends := r.passEnds
	if len(ends) == 0 {
		ends = []int{len(r.lat)}
	}
	var sum time.Duration
	start := 0
	for _, end := range ends {
		lat := slices.Clone(r.lat[start:end])
		slices.Sort(lat)
		sum += percentile(lat, p)
		start = end
	}
	return float64(sum) / float64(len(ends)) / 1e3
}

// percentile returns the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(p*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
