// Package req implements the REQ sketch: streaming quantile estimation with
// relative (multiplicative) rank error, reproducing
//
//	Cormode, Karnin, Liberty, Thaler, Veselý.
//	"Relative Error Streaming Quantiles." PODS 2021. arXiv:2004.01668.
//
// Given a one-pass stream of n items from any totally ordered universe, the
// sketch answers rank queries with guarantee
//
//	|R̂(y) − R(y)| ≤ ε·R(y)   with probability 1 − δ   (Theorem 1)
//
// while storing only O(ε⁻¹·log^1.5(εn)·√log(1/δ)) items. Relative error is
// what tail monitoring needs: an additive-error sketch (KLL, GK) answering a
// p99.99 query can be off by its whole εn budget, while this sketch's error
// shrinks proportionally with the distance from the extreme.
//
// # Quick start
//
//	s, _ := req.NewFloat64(req.WithEpsilon(0.01))
//	for _, v := range latenciesMillis {
//		s.Update(v)
//	}
//	p999, _ := s.Quantile(0.999)       // item at normalized rank 0.999
//	r := s.Rank(250.0)                 // estimated #items ≤ 250 ms
//
// By default the guarantee covers low ranks (and the sketch stores the
// smallest items exactly). For tail monitoring — the common case — request
// high-rank accuracy, which flips the protected side:
//
//	s, _ := req.NewFloat64(req.WithEpsilon(0.01), req.WithHighRankAccuracy())
//
// # Arbitrary item types
//
// The sketch is comparison-based: any type with a strict total order works.
//
//	type Span struct{ Millis float64; TraceID string }
//	s, _ := req.New(func(a, b Span) bool { return a.Millis < b.Millis })
//
// # Merging
//
// Sketches built with the same options merge freely and in any tree shape,
// preserving the guarantee (Theorem 3); streams may be sketched shard-wise
// on different machines and combined later:
//
//	_ = global.Merge(shard1)
//	_ = global.Merge(shard2)
//
// # Readers and snapshots
//
// The API splits into writers and readers. There is one generic type per
// container; Float64, Uint64, ShardedFloat64 and ShardedUint64 are type
// aliases of Sketch[T] and Sharded[T] at float64 and uint64, whose New*
// constructors pick the natural order. Both containers satisfy the
// Reader[T] interface, the complete query surface (ranks, quantiles,
// CDF/PMF, the batch variants, and the All coreset iterator), so
// query-side code can be written once against Reader and handed any of
// them.
//
// Snapshot[T] is the immutable reader, and the one frozen reader: every
// container's Snapshot() method captures the current coreset (its sorted
// items and cumulative weights) as a Snapshot that owns its storage,
// answers what the source would have answered at capture time (ranks and
// batch reads bit for bit, quantiles equal under the order), and is safe
// for any number of goroutines with no locks — while the source keeps
// writing. Two tools cover the copy spectrum, and there is no in-place
// freeze between them:
//
//   - Snapshot copies the frozen coreset out (on Sharded it is free
//     between writes: the published epoch snapshot is handed out
//     directly, no per-call clone). Use it to hand consistent state to
//     other goroutines, scrape loops, or read replicas.
//   - Clone copies the full mutable state (levels, RNG), so the copy can
//     keep ingesting or merge elsewhere.
//
// The weighted coreset is exported by the Go-1.23-style iterator All —
// every retained item in ascending order with its weight, allocation-free:
//
//	for item, weight := range s.All() { ... }
//
// On a live sketch the iteration walks sketch-owned storage (do not write
// mid-loop); on a Snapshot it is lock-free and immutable.
//
// # Serialization
//
// Float64 and Uint64 sketches round-trip through encoding.BinaryMarshaler
// / BinaryUnmarshaler, including the internal random-generator state, so a
// restored sketch continues bit-for-bit identically. The decoders rebuild
// under the natural order, so MarshalBinary (and SaveSnapshot, and the
// registries' encoders) return an error for a sketch of another item type
// or under a custom order instead of writing what no decoder reads.
//
// Snapshots serialize too, as a query-only record of the same versioned
// format: Snapshot.MarshalBinary encodes just the coreset (items, varint
// weights, min/max, config header) and UnmarshalSnapshotFloat64 /
// UnmarshalSnapshotUint64 restore an immutable queryable Snapshot. Ship
// full sketch state to peers that must keep ingesting or merging; ship
// snapshot records to read replicas that only answer queries — they decode
// straight into the frozen reader, carry no mutable state, and cannot be
// mistaken for a resumable sketch (each decoder rejects the other record
// kind with ErrCorrupt).
//
// # Durability: crash-safe persistence, zero-copy open
//
// Snapshots also persist to disk in a page-aligned slab format that is
// opened zero-copy (see internal/snapstore for the format):
//
//	gen, _ := s.SaveSnapshot(dir)        // any container; new generation
//	m, _ := req.OpenSnapshotFloat64(dir) // newest valid generation, mmap'd
//	defer m.Close()
//	p99, _ := m.Quantile(0.99)           // served from the page cache
//
// SaveSnapshot is atomic: it writes a temp file, fsyncs it, renames it
// into place as the next numbered generation, and fsyncs the directory —
// a crash at any point leaves the previous generation intact, and prior
// generations are pruned only after the new one is durable. OpenSnapshot*
// scans generations newest-first and degrades past damaged files: a
// footer written last detects torn writes in O(1) (ErrTornWrite), a
// CRC32C per section detects bit-rot, and ErrNoSnapshot / ErrCorrupt
// distinguish "nothing saved yet" from "everything damaged". This
// old-or-new recovery contract is proven by the fault-injection crash
// matrix in internal/snapstore, which sweeps a fault budget across every
// byte and metadata operation of a save.
//
// The slab file (format 2) stores the two frozen-view arrays, the sorted
// items and their cumulative weights, 64-byte-aligned exactly as they live
// in memory, so on little-endian platforms the returned MappedSnapshot
// aliases the read-only mapping in place: open cost is O(1) in the coreset
// size and queries read straight from the page cache with zero per-query
// allocations. Close unmaps; the mapping stays valid even if the file is
// pruned meanwhile. WithVerify selects the open-time verification level
// (VerifyChecksum by default; VerifyFull adds structural validation of the
// decoded arrays, catching a writer that lied under honest checksums;
// VerifyNone trusts the file for O(1) opens), and WithoutMmap forces the
// portable copying read path used automatically wherever mapping or aliasing
// is unavailable.
//
// Snapshot.WriteSnapshotFile writes one standalone slab file with no
// generation bookkeeping, and OpenSnapshotFileFloat64 / ...Uint64 open
// one; reqcli's save, load, and inspect subcommands expose the same
// machinery (inspect prints a per-section checksum report even for files
// the opener rejects).
//
// # Multi-tenant registry
//
// The "millions of users" workload is per-key quantiles — per-endpoint,
// per-user, per-device latency — not one giant stream. Registry[K, T]
// (and the RegistryFloat64 / RegistryUint64 instantiations) is a
// concurrent keyed collection of sketches built for that population:
//
//	reg, _ := req.NewRegistryFloat64(req.WithK(8),
//	        req.WithMaxEntries(1<<20), req.WithTTL(15*time.Minute))
//	reg.Update("GET /checkout", 12.7) // lazily creates the key's sketch
//	p99, _ := reg.Quantile("GET /checkout", 0.99)
//
// Entries live in per-shard block arenas with freelists (internal/tenant):
// a million-key registry is thousands of allocations, not millions, and
// eviction recycles cells and their grown level buffers. A key costs what
// it holds: its sketch starts with an 8-item level-0 buffer that doubles
// as it fills, so with WithK(16) and WithHighRankAccuracy a key holding
// a few items costs about 580 heap bytes, one holding 64 about 1,030 and
// one holding 1,024 about 9.4 KB; a 5-slot windowed key holding one item
// costs about 2,660. A key allocates only while its buffers grow toward
// the buffer capacity B (level 0 reallocates about log₂(B/8) times);
// past that, steady-state keyed updates, keyed queries, and whole-key
// churn are all 0 allocs/op.
// WithTTL gives idle keys a lazy time-to-live, WithMaxEntries caps the
// resident population behind a clock-hand second-chance sweep, and
// WithClock injects synthetic time for tests. Visit iterates the
// population allocation-lean; MarshalBinary and SaveRegistry export every
// key's coreset as one blob or one crash-safe snapstore generation
// ("RREG" format), restored by UnmarshalRegistry* / OpenRegistry* as an
// immutable RegistrySnapshot whose per-key answers are bit-identical to
// the live registry's Snapshot of that key at capture time. A restore's
// snapshots share its storage, so one kept snapshot keeps every key's
// items alive.
//
// # Batched multi-tenant ingest
//
// UpdatePairs (and the []KV front UpdateKVs) ingests a whole (keys,
// items) batch through a shard-grouped pipeline: one pass hashes every
// key, a counting sort groups the batch into per-shard runs in reused
// scratch, and each shard is then locked once per batch — resolving
// every distinct key's cell once and feeding same-key runs through the
// sketch's batch kernels. The ordering contract is exactly what
// mergeability (Theorem 3) makes free: items of the same key are
// ingested in batch order, items of different keys may interleave
// differently than a per-op loop, and the distribution — hence every
// quantile answer — is identical. The whole batch observes one clock
// reading, and each key is charged one TTL/eviction touch per batch
// rather than one per item. Steady-state batched ingest is 0 allocs/op
// (the grouping scratch is pooled and grow-only); batching wins over a
// per-op Update loop by amortizing lock round-trips, hash/map probes,
// and kernel entry across the batch: on flush-shaped traffic (about 8
// items per key) over 1M keys, batches of 256 measured ~4x the per-op
// loop, and BenchmarkRegistryUpdatePairs runs both arms. Under the
// float64 order a pair whose item is NaN is dropped with its key before
// grouping, as Update drops it, so a NaN never creates or touches a key.
//
// WindowedRegistry answers over a trailing time window instead of the
// whole stream: each key carries a ring of sketch slots rotated lazily on
// epoch boundaries, and queries read the live slots as one weighted
// coreset. A quantile read settles each live slot's levels in place and
// selects the answer by binary searches over the sorted level buffers —
// exactly the answer of a sorted view over the slots' union, with no
// merge, compaction or coin — so a windowed answer carries the slots'
// summed rank error: the same ε budget as a single sketch over the
// window's items (Theorem 3). The union scratch is per shard and
// grow-only — steady-state windowed queries are also allocation-free.
// This is the monitoring/SLO shape: per-endpoint p99 over the last N
// minutes with keys appearing and expiring as traffic shifts (see
// examples/slo and experiment E17). Windowed UpdatePairs
// resolves each key's live ring slot once per run inside the same
// shard-grouped pipeline, so batched windowed ingest (including lazy
// rotation on epoch boundaries) matches the per-op path bit-for-bit.
//
// # Modes
//
// Three parameterisations are exposed (see the paper's Sections 4, Appendix
// C, and Appendix D):
//
//   - default (mergeable, Theorem 1): space ∝ ε⁻¹·log^1.5(εn)·√log(1/δ)
//   - WithTheorem2Mode: space ∝ ε⁻¹·log²(εn)·log log(1/δ), better for
//     extremely small δ; with tiny δ it is effectively deterministic
//   - WithK: fixed section size, like Apache DataSketches ReqSketch, for
//     users who budget items instead of (ε, δ)
//
// # Performance: sorted compactors and batch ingest
//
// Internally every compactor buffer is kept sorted (level 0 carries a small
// unsorted append tail that is sorted and merged in at compaction time), so
// compaction is merge-based — no buffer is ever fully re-sorted — and the
// amortized update cost is O(log(1/ε)) comparisons, following Ivkin et al.,
// "Streaming Quantiles Algorithms with Small Space and Update Time" (2019).
//
// When values arrive in slices, prefer UpdateBatch over per-item Update: it
// amortizes min/max tracking, view invalidation, stream-length bound checks
// and compaction cascades across the batch (and, on Sharded, the lock
// traffic too). Batch and per-item ingest produce
// bit-identical sketches unless a stream-length growth lands mid-batch;
// then the bound is raised once for the whole chunk, which preserves the
// accuracy guarantee but may retain a slightly different coreset.
//
// # Query path and batch queries
//
// A sketch's single reads — Rank, RankExclusive, Quantile, QuantilesInto —
// always read its levels, as the paper's Estimate-Rank (Algorithm 2) does.
// Rank binary-searches each sorted level. Estimate-Rank sums each
// compactor's weighted count, so the φ-quantile is the smallest retained
// item whose summed weight reaches ⌈φn⌉, and Quantile and QuantilesInto
// find it by selection over the sorted level buffers — the engine windowed
// registry reads use too. A read first settles each level in place (it
// sorts level 0's append tail and merges it behind the sorted prefix, the
// step every compaction starts with); the multiset is unchanged, so no
// answer moves and no coin is drawn. A single read neither builds nor
// consults a view, so its answer is the same, bit for bit, whether or not
// one is current. The answers equal, under the order, those of the sorted
// view; among items equal under the order, such as +0 and −0, a single
// read and a view may name different ones.
//
// Everything else goes through a cached sorted view built by a k-way merge
// of the levels: Snapshot, RankBatch, CDF/PMF, All, registry export and
// Sharded's epoch rebuild. Writes invalidate the view; the next of those
// calls rebuilds it into the storage of the previous view (grow-only
// backing arrays), so a long-lived sketch stops allocating on the query
// path entirely, and the calls between two writes share one build. A
// Snapshot carries its own copy of the view, which is why its queries
// never touch the source again; Sharded publishes its epoch's merged view
// as the snapshot without a copy.
//
// When several probes are answered at once, prefer the batch APIs —
// RankBatch, NormalizedRankBatch, QuantilesInto, CDFInto, PMFInto — over a
// loop of single queries. A batch settles or rebuilds once; a sorted probe
// set is then answered with one galloping sweep, so per-probe cost
// amortizes to O(1) comparisons for dense sets, and an unsorted one probe
// by probe, without sorting a copy (a Snapshot's QuantilesInto restarts
// its sweep wherever φ drops; a sketch's narrows its selection over the
// levels as an ascending φ set goes). The ...Into variants write into a
// caller-supplied destination, so a monitoring loop that reuses its
// slices queries with zero allocations end to end.
//
// # Memory layout: one buffer per level
//
// Each relative-compactor owns its buffer, a slice that grows by append:
// level 0 starts at 8 items and doubles as it fills, and a compaction
// grows the level above, when it must, before merging its emission there
// in place.
// Spare capacity is kept zeroed so pointer-bearing item types never
// linger after truncation. Clone copies each level at its length;
// CopyFrom and Reset keep the target's buffers, so a warm refresh or a
// recycled registry key allocates nothing.
//
// Frozen snapshots follow an explicit ownership rule: Snapshot() copies
// the sorted view's two arrays into storage the snapshot owns (two
// allocations, two memcpys), because the source sketch keeps writing; the
// sharded wrapper's published epoch snapshots instead alias their epoch
// sketch's storage outright, because that sketch is immutable from
// publication on. Own when the source keeps writing; alias only when the
// source is provably frozen.
//
// # Kernel tables
//
// The engine runs its hot inner loops — sorting, merging, level rank
// counts, searches and the k-way merge — through one kernel table per
// order, chosen once when the order is fixed.
// Sketches built over the canonical comparators core.LessF64 /
// core.LessU64 — which the typed constructors (NewFloat64,
// NewShardedUint64, NewRegistryFloat64, …), deserialization, and snapshot
// open all use — get the monomorphic kernels of internal/vec, with the
// comparison inlined instead of a closure call per comparison. Every other
// order, including a custom closure that computes a < b, gets a table of
// the generic algorithms bound to its less, at closure speed. Every kernel
// is portable Go, the same on every platform and build.
//
// The table also carries the order's item rule. NaN has no place in a
// total order, so the LessF64 table drops it; every other table admits
// every item. Update, UpdateBatch and UpdateWeighted apply the rule, and
// Sharded and the registries apply it before they take a shard or resolve
// a key. A batch is scanned once and copied only when it holds a NaN.
//
// The table never changes results. The vec kernels are structure-identical
// transcriptions of the generic algorithms, so equal and NaN-incomparable
// elements land in the same permutation, and the unrolled scans are
// permutation-invariant reductions; differential tests pin bit-identical
// sketch state and answers between the two tables, including ±0/±Inf
// adversarial streams.
//
// # Concurrency
//
// Plain sketches are not safe for concurrent use. Sharded (ShardedFloat64
// and ShardedUint64 are its float64 and uint64 aliases) is the thread-safe
// container: it stripes writers across GOMAXPROCS-scaled per-shard
// sketches, each behind its own lock, and answers queries from a lazily
// rebuilt merged snapshot. By Theorem 3 the merge costs no accuracy.
//
//	s, _ := req.NewShardedFloat64(req.WithEpsilon(0.01))
//	// any number of goroutines:
//	s.Update(v)
//	// any goroutine, any time:
//	p99, _ := s.Quantile(0.99)
//
// WithShards(1) keeps one sketch behind one lock; it answers exactly as a
// Float64 fed the same stream with the same options and seed. A query
// after writes restages and clones the shard set before it answers, so
// read-mostly traffic that interleaves writes pays that copy on the first
// read after each write; reads between writes are lock-free. Sharding per
// goroutine with plain sketches and merging manually remains the fastest
// option when the application controls the goroutines.
//
// # Static guarantees
//
// The package's in-memory contracts — the view-recycling rule above, the
// per-level buffer ownership, the lock discipline of Sharded, and the
// zero-allocation hot query paths — are enforced at compile time by the
// project linter, cmd/reqlint, a go/analysis multichecker run in CI over
// the whole repository. Code carries the contracts as annotations:
//
//   - //req:noalloc on a function asserts it allocates nothing; the
//     noalloc analyzer rejects make/new, escaping composite literals,
//     growing append (waivable per line with //req:allocok), interface
//     conversions, escaping closures, and calls to unannotated functions.
//     On an interface method it binds every implementation in the package.
//   - // +req:guardedBy(mu) on a struct field makes the locked analyzer
//     prove every access holds mu (exclusively for writes);
//     // +req:locksRequired, +req:locksAcquired, +req:locksReleased and
//     +req:callsWithLock describe lock handoff between functions.
//   - //req:viewpass marks the rare helper allowed to return a *View.
//
// The slabalias analyzer needs no annotations: inside internal/core it
// proves that no level-buffer alias or compactor pointer is used after a
// call that can grow the levels or that buffer, and that scratch buffers
// never alias a level.
// Run `go run ./cmd/reqlint ./...` locally; see the README's "Static
// guarantees" section for details.
package req
