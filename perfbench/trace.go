package main

import (
	"runtime"
	"time"
)

// tracer records spans around the benchmark's calls into each layer of the
// library. A nil *tracer is valid and records nothing, so the untraced run
// pays one nil check per call site.
//
// Every span is folded into a per-name count and total duration as it ends;
// counts recorded at layer boundaries (items, bytes) are summed by name.
type tracer struct {
	open     []openSpan
	agg      map[string]*spanAgg
	counts   map[string]float64
	paused   bool
	mem      runtime.MemStats
	opAllocs [2]uint64 // heap bytes and objects allocated before the operation
}

type openSpan struct {
	name  string
	start time.Time
}

type spanAgg struct {
	count int64
	total time.Duration
}

func newTracer() *tracer {
	return &tracer{
		agg:    make(map[string]*spanAgg),
		counts: make(map[string]float64),
	}
}

// beginOp opens the span of one timed operation, first reading the heap
// allocation counters.
func (t *tracer) beginOp() {
	if t == nil || t.paused {
		return
	}
	runtime.ReadMemStats(&t.mem)
	t.opAllocs = [2]uint64{t.mem.TotalAlloc, t.mem.Mallocs}
	t.begin("op")
}

// endOp closes the operation's span and counts the heap bytes and objects
// allocated since beginOp as op_alloc_bytes and op_allocs. ReadMemStats
// flushes every per-processor cache, so the counts are exact.
func (t *tracer) endOp() {
	if t == nil || t.paused {
		return
	}
	t.end()
	runtime.ReadMemStats(&t.mem)
	t.counts["op_alloc_bytes"] += float64(t.mem.TotalAlloc - t.opAllocs[0])
	t.counts["op_allocs"] += float64(t.mem.Mallocs - t.opAllocs[1])
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	*t = *newTracer()
}

// pause stops (true) or resumes (false) recording. Call it only while no
// span is open.
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused = p
	}
}

// begin opens a span named name inside the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil || t.paused {
		return
	}
	t.open = append(t.open, openSpan{name: name, start: time.Now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || t.paused {
		return
	}
	s := t.open[len(t.open)-1]
	d := time.Since(s.start)
	t.open = t.open[:len(t.open)-1]
	a := t.agg[s.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.name] = a
	}
	a.count++
	a.total += d
}

// rename relabels the innermost open span, for spans whose layer is known
// only once the call returns (an Update that did or did not compact).
func (t *tracer) rename(name string) {
	if t == nil || t.paused {
		return
	}
	t.open[len(t.open)-1].name = name
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil || t.paused {
		return
	}
	t.counts[name] += v
}

// calls returns how many spans named name ended.
func (t *tracer) calls(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.count
	}
	return 0
}

// total returns the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	if a := t.agg[name]; a != nil {
		return a.total
	}
	return 0
}

// perCall returns the mean duration of the spans named name in unit, or 0
// when the workload made no such call.
func (t *tracer) perCall(name string, unit time.Duration) float64 {
	n := t.calls(name)
	if n == 0 {
		return 0
	}
	return float64(t.total(name)) / float64(n) / float64(unit)
}

// perCount returns the summed duration of the spans named name divided by
// the count named count, in unit, or 0 when the count is 0.
func (t *tracer) perCount(name, count string, unit time.Duration) float64 {
	c := t.counts[count]
	if c == 0 {
		return 0
	}
	return float64(t.total(name)) / c / float64(unit)
}
