package main

import "time"

// layerMetric is one per-layer figure of a traced run, computed from the
// spans the benchmark records around its calls into the library. A layer
// the workload does not call reads 0.
type layerMetric struct {
	name  string
	unit  string
	value func(t *tracer, opP50us float64) float64
}

// perLayer lists the traced run's metrics. The span names are the layer
// boundaries the public API exposes:
//
//	pairs         Registry/WindowedRegistry.UpdatePairs: key hash, batch plan,
//	              shard locks, cell resolve, per-key run ingest
//	append        Sketch.Update calls that only appended to level 0
//	compact       Sketch.Update calls that ran a compaction
//	live_query    QuantilesInto on a live registry key, or on the single
//	              stream outside its operation: view upkeep, then the search
//	view_repair   QuantilesInto on the single stream after a chunk that ran
//	              no compaction: view repair, then the search
//	view_rebuild  QuantilesInto on the single stream after a chunk that
//	              compacted: view rebuild, then the search
//	window_query  WindowedRegistry.QuantilesInto: ring merge, view, search
//	freeze        Sketch.Snapshot
//	frozen_query  QuantilesInto on an immutable snapshot: the search alone
//	encode        RegistryFloat64.MarshalBinary
//	decode        UnmarshalRegistryFloat64
//	first_query   the first read from a restored registry
//	snap_encode   Snapshot.MarshalBinary
//	snap_decode   UnmarshalSnapshotFloat64
//	save          RegistryFloat64.SaveRegistry: encode, write, fsync, rename
//	raw_write     the same bytes written and synced without the library
//	open          OpenRegistryFloat64: read, checksum, decode
//	snap_save     Sketch.Snapshot, then Snapshot.SaveSnapshot
//	mmap_open     OpenSnapshotFloat64 (memory-mapped)
//	mmap_query    the first read from a mapped snapshot
var perLayer = []layerMetric{
	{"op_p50_us_traced", "us", func(_ *tracer, p50 float64) float64 { return p50 }},
	{"alloc_bytes_per_op", "bytes", perOpMetric("op_alloc_bytes")},
	{"allocs_per_op", "count", perOpMetric("op_allocs")},
	{"pairs_ns_per_item", "ns", perCountMetric("pairs", "pairs_items", time.Nanosecond)},
	{"pairs_items", "count", countMetric("pairs_items")},
	{"append_ns_per_item", "ns", perCallMetric("append", time.Nanosecond)},
	{"compaction_ns_per_item", "ns", perCountMetric("compact", "update_items", time.Nanosecond)},
	{"compactions_per_1k_items", "count", func(t *tracer, _ float64) float64 {
		if n := t.counts["update_items"]; n > 0 {
			return float64(t.calls("compact")) / n * 1000
		}
		return 0
	}},
	{"live_query_us", "us", perCallMetric("live_query", time.Microsecond)},
	{"view_repair_us", "us", perCallMetric("view_repair", time.Microsecond)},
	{"view_rebuild_us", "us", perCallMetric("view_rebuild", time.Microsecond)},
	{"window_query_us", "us", perCallMetric("window_query", time.Microsecond)},
	{"freeze_us", "us", perCallMetric("freeze", time.Microsecond)},
	{"frozen_query_us", "us", perCallMetric("frozen_query", time.Microsecond)},
	{"encode_ms", "ms", perCallMetric("encode", time.Millisecond)},
	{"encode_bytes_per_call", "bytes", func(t *tracer, _ float64) float64 {
		if n := t.calls("encode"); n > 0 {
			return t.counts["encode_bytes"] / float64(n)
		}
		return 0
	}},
	{"decode_ms", "ms", perCallMetric("decode", time.Millisecond)},
	{"first_query_us", "us", perCallMetric("first_query", time.Microsecond)},
	{"snap_encode_us", "us", perCallMetric("snap_encode", time.Microsecond)},
	{"snap_decode_us", "us", perCallMetric("snap_decode", time.Microsecond)},
	{"save_ms", "ms", perCallMetric("save", time.Millisecond)},
	{"save_MBps", "MB/s", throughputMetric("save", "save_bytes")},
	{"raw_write_MBps", "MB/s", throughputMetric("raw_write", "raw_bytes")},
	{"open_ms", "ms", perCallMetric("open", time.Millisecond)},
	{"snap_save_ms", "ms", perCallMetric("snap_save", time.Millisecond)},
	{"mmap_open_us", "us", perCallMetric("mmap_open", time.Microsecond)},
	{"mmap_query_us", "us", perCallMetric("mmap_query", time.Microsecond)},
}

func perCallMetric(span string, unit time.Duration) func(*tracer, float64) float64 {
	return func(t *tracer, _ float64) float64 { return t.perCall(span, unit) }
}

func perCountMetric(span, count string, unit time.Duration) func(*tracer, float64) float64 {
	return func(t *tracer, _ float64) float64 { return t.perCount(span, count, unit) }
}

// perOpMetric is a count divided by the number of timed operations.
func perOpMetric(count string) func(*tracer, float64) float64 {
	return func(t *tracer, _ float64) float64 {
		if n := t.calls("op"); n > 0 {
			return t.counts[count] / float64(n)
		}
		return 0
	}
}

func countMetric(count string) func(*tracer, float64) float64 {
	return func(t *tracer, _ float64) float64 { return t.counts[count] }
}

// throughputMetric is bytes counted per second spent in the span, in MB/s.
func throughputMetric(span, bytes string) func(*tracer, float64) float64 {
	return func(t *tracer, _ float64) float64 {
		d := t.total(span)
		if d == 0 {
			return 0
		}
		return t.counts[bytes] / d.Seconds() / 1e6
	}
}
