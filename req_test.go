package req

import (
	"math"
	"strings"
	"testing"

	"req/internal/exact"
	"req/internal/rng"
)

func mustFloat64(t testing.TB, opts ...Option) *Float64 {
	t.Helper()
	s, err := NewFloat64(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func permStream(n int, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i, v := range r.Perm(n) {
		out[i] = float64(v)
	}
	return out
}

func TestNewDefaults(t *testing.T) {
	s := mustFloat64(t)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("fresh sketch not empty")
	}
	if s.K() == 0 || s.NumLevels() == 0 {
		t.Fatal("geometry not initialised")
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"eps too big", []Option{WithEpsilon(1)}},
		{"eps zero", []Option{WithEpsilon(0)}},
		{"eps negative", []Option{WithEpsilon(-0.5)}},
		{"delta zero", []Option{WithDelta(0)}},
		{"delta too big", []Option{WithDelta(0.7)}},
		{"k odd", []Option{WithK(7)}},
		{"k small", []Option{WithK(2)}},
		{"known n zero", []Option{WithKnownN(0)}},
		{"nil option", []Option{nil}},
	}
	for _, c := range cases {
		if _, err := NewFloat64(c.opts...); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestOptionsAccepted(t *testing.T) {
	if _, err := NewFloat64(
		WithEpsilon(0.02), WithDelta(0.05), WithSeed(7),
		WithKnownN(1_000_000), WithHighRankAccuracy(),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFloat64(WithK(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFloat64(WithTheorem2Mode(), WithEpsilon(0.05), WithDelta(1e-9)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFloat64(WithPaperConstants(), WithEpsilon(0.1), WithDelta(0.1)); err != nil {
		t.Fatal(err)
	}
}

func TestNilLess(t *testing.T) {
	if _, err := New[int](nil); err == nil {
		t.Fatal("nil less accepted")
	}
}

func TestEndToEndAccuracy(t *testing.T) {
	const n = 1 << 18
	const eps = 0.05
	s := mustFloat64(t, WithEpsilon(eps), WithDelta(0.01), WithSeed(1))
	s.UpdateBatch(permStream(n, 2))
	if s.Count() != n {
		t.Fatalf("count = %d", s.Count())
	}
	for rank := 1; rank <= n; rank *= 2 {
		got := float64(s.Rank(float64(rank - 1)))
		rel := math.Abs(got-float64(rank)) / float64(rank)
		if rel > eps {
			t.Errorf("rank %d: rel error %.4f > eps", rank, rel)
		}
	}
}

func TestHighRankAccuracyTail(t *testing.T) {
	const n = 1 << 18
	s := mustFloat64(t, WithEpsilon(0.01), WithHighRankAccuracy(), WithSeed(3))
	s.UpdateBatch(permStream(n, 4))
	// Tail ranks (the paper's p99.99 use case) must be near exact.
	for _, back := range []int{1, 3, 10, 30, 100} {
		y := float64(n - back)
		want := float64(n - back + 1)
		got := float64(s.Rank(y))
		if math.Abs(got-want)/(float64(back)+1) > 0.5 {
			t.Errorf("tail rank at %v: got %v want %v", y, got, want)
		}
	}
}

func TestNaNIgnored(t *testing.T) {
	s := mustFloat64(t)
	s.Update(math.NaN())
	s.UpdateBatch([]float64{1, math.NaN(), 2})
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2 (NaNs skipped)", s.Count())
	}
}

func TestInfinitiesAccepted(t *testing.T) {
	s := mustFloat64(t)
	s.UpdateBatch([]float64{math.Inf(1), 0, math.Inf(-1)})
	mn, _ := s.Min()
	mx, _ := s.Max()
	if !math.IsInf(mn, -1) || !math.IsInf(mx, 1) {
		t.Fatal("infinities not ordered as extremes")
	}
	if s.Rank(0) != 2 {
		t.Fatalf("Rank(0) = %d", s.Rank(0))
	}
}

func TestQuantileAndErrors(t *testing.T) {
	s := mustFloat64(t)
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("empty quantile error = %v", err)
	}
	s.Update(5)
	if _, err := s.Quantile(2); err != ErrBadRank {
		t.Fatalf("bad rank error = %v", err)
	}
	q, err := s.Quantile(0.5)
	if err != nil || q != 5 {
		t.Fatalf("quantile = %v, %v", q, err)
	}
}

func TestQuantilesBatchAndCDFPMF(t *testing.T) {
	const n = 1 << 16
	s := mustFloat64(t, WithEpsilon(0.05), WithSeed(5))
	s.UpdateBatch(permStream(n, 6))
	qs, err := s.Quantiles([]float64{0.25, 0.5, 0.75})
	if err != nil || len(qs) != 3 {
		t.Fatalf("quantiles: %v, %v", qs, err)
	}
	if !(qs[0] <= qs[1] && qs[1] <= qs[2]) {
		t.Fatal("quantiles not monotone")
	}
	cdf, err := s.CDF([]float64{n * 0.5})
	if err != nil || len(cdf) != 2 || cdf[1] != 1 {
		t.Fatalf("cdf: %v, %v", cdf, err)
	}
	pmf, err := s.PMF([]float64{n * 0.5})
	if err != nil || len(pmf) != 2 {
		t.Fatalf("pmf: %v, %v", pmf, err)
	}
	if math.Abs(pmf[0]-0.5) > 0.05 {
		t.Fatalf("pmf[0] = %v", pmf[0])
	}
}

// TestCDFPMFRejectNaNSplits pins that a NaN split point is refused on every
// container: NaN compares false both ways, so such a set looks sorted, and
// every split after the NaN used to read 1.
func TestCDFPMFRejectNaNSplits(t *testing.T) {
	f := mustFloat64(t, WithSeed(1))
	sh, err := NewShardedFloat64(WithSeed(1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f.Update(float64(i))
		sh.Update(float64(i))
	}
	nan := math.NaN()
	for name, r := range map[string]Reader[float64]{"Sketch": f, "Snapshot": f.Snapshot(), "Sharded": sh} {
		for _, splits := range [][]float64{{100, nan, 500}, {nan}} {
			if cdf, err := r.CDF(splits); err == nil {
				t.Errorf("%s: CDF(%v) = %v, want an error", name, splits, cdf)
			}
			if pmf, err := r.PMF(splits); err == nil {
				t.Errorf("%s: PMF(%v) = %v, want an error", name, splits, pmf)
			}
		}
	}
}

func TestMergePublicAPI(t *testing.T) {
	const n = 1 << 17
	a := mustFloat64(t, WithEpsilon(0.05), WithSeed(7))
	b := mustFloat64(t, WithEpsilon(0.05), WithSeed(8))
	stream := permStream(n, 9)
	for i, v := range stream {
		if i%2 == 0 {
			a.Update(v)
		} else {
			b.Update(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != n {
		t.Fatalf("merged count = %d", a.Count())
	}
	if err := a.Merge(nil); err != nil {
		t.Fatal("nil merge should be no-op")
	}
	oracle := exact.FromValues(stream)
	for rank := 16; rank <= n; rank *= 4 {
		y := oracle.ItemOfRank(uint64(rank))
		got := float64(a.Rank(y))
		if math.Abs(got-float64(rank))/float64(rank) > 0.06 {
			t.Errorf("merged rank %d: got %v", rank, got)
		}
	}
}

func TestMergeIncompatiblePublic(t *testing.T) {
	a := mustFloat64(t, WithEpsilon(0.05))
	b := mustFloat64(t, WithEpsilon(0.1))
	b.Update(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("incompatible merge accepted")
	}
}

// TestMergeRefusesOtherOrder pins that a sketch built under one order
// cannot be merged into a sketch built under another: the merged levels
// would be sorted two ways. Each case asserts the error before it queries
// the target, then checks that the target still answers as before.
func TestMergeRefusesOtherOrder(t *testing.T) {
	desc := func(a, b float64) bool { return a > b }
	other, err := New(desc, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		other.Update(float64(i))
	}

	empty := mustFloat64(t, WithSeed(1))
	if err := empty.Merge(other); err == nil {
		t.Fatal("empty target merged a sketch of another order")
	}
	empty.Update(1e9)
	if q, err := empty.Quantile(1); err != nil || q != 1e9 || empty.Count() != 1 {
		t.Fatalf("empty target after refused merge: Quantile(1) = %v, %v; Count = %d", q, err, empty.Count())
	}

	full := mustFloat64(t, WithSeed(1))
	sharded, err := NewShardedFloat64(WithSeed(1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	// A generic table over another function: only the code pointer
	// tells the two orders apart.
	custom, err := New(func(a, b float64) bool { return a < b }, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		full.Update(float64(i))
		sharded.Update(float64(i))
		custom.Update(float64(i))
	}
	for _, tc := range []struct {
		name  string
		merge func(*Float64) error
		r     Reader[float64]
	}{
		{"Sketch", full.Merge, full},
		{"Sharded", sharded.Merge, sharded},
		{"custom order", custom.Merge, custom},
	} {
		rank := tc.r.Rank(2500)
		q, _ := tc.r.Quantile(0.1)
		if err := tc.merge(other); err == nil {
			t.Fatalf("%s merged a sketch of another order", tc.name)
		}
		rank2 := tc.r.Rank(2500)
		q2, err := tc.r.Quantile(0.1)
		if err != nil || rank2 != rank || q2 != q {
			t.Errorf("%s after refused merge: Rank(2500) %d -> %d, Quantile(0.1) %v -> %v (%v)", tc.name, rank, rank2, q, q2, err)
		}
	}

	// The same order merges: the identity is the less function's code.
	same, err := New(desc, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	same.Update(-1)
	if err := same.Merge(other); err != nil || same.Count() != 5001 {
		t.Fatalf("merge under the same order: %v, Count = %d", err, same.Count())
	}
}

func TestGenericStringSketch(t *testing.T) {
	s, err := New(func(a, b string) bool { return a < b }, WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"pear", "apple", "plum", "fig", "apple"}
	s.UpdateBatch(words)
	if got := s.Rank("apple"); got != 2 {
		t.Fatalf(`Rank("apple") = %d`, got)
	}
	if got := s.Rank("zzz"); got != 5 {
		t.Fatalf(`Rank("zzz") = %d`, got)
	}
	q, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q == "" {
		t.Fatal("empty median")
	}
}

func TestGenericStructSketch(t *testing.T) {
	type span struct {
		ms float64
		id int
	}
	s, err := New(func(a, b span) bool { return a.ms < b.ms }, WithEpsilon(0.1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	for i := 0; i < 50000; i++ {
		s.Update(span{ms: r.Float64() * 100, id: i})
	}
	med, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med.ms < 40 || med.ms > 60 {
		t.Fatalf("median span %v implausible", med)
	}
}

func TestStringer(t *testing.T) {
	s := mustFloat64(t)
	s.Update(1)
	if got := s.String(); !strings.Contains(got, "req.Sketch") {
		t.Fatalf("String() = %q", got)
	}
	if !strings.Contains(s.DebugString(), "REQ sketch") {
		t.Fatal("DebugString missing header")
	}
}

func TestWithKnownNAvoidsGrowth(t *testing.T) {
	const n = 1 << 16
	known := mustFloat64(t, WithEpsilon(0.05), WithKnownN(n), WithSeed(11))
	known.UpdateBatch(permStream(n, 12))
	// With a correct bound there must be no N-squaring growth. (Internal
	// stat not exposed publicly; infer from the debug string level shape.)
	if known.Count() != n {
		t.Fatal("count mismatch")
	}
}

func TestReproducibleUnderSeed(t *testing.T) {
	run := func() []float64 {
		s := mustFloat64(t, WithEpsilon(0.05), WithSeed(42))
		s.UpdateBatch(permStream(1<<16, 13))
		qs, err := s.Quantiles([]float64{0.1, 0.5, 0.9, 0.99})
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-reproducible at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTheorem2ModeEndToEnd(t *testing.T) {
	const n = 1 << 16
	s := mustFloat64(t, WithTheorem2Mode(), WithEpsilon(0.05), WithDelta(1e-12), WithSeed(14))
	s.UpdateBatch(permStream(n, 15))
	for rank := 1; rank <= n; rank *= 4 {
		got := float64(s.Rank(float64(rank - 1)))
		if math.Abs(got-float64(rank))/float64(rank) > 0.05 {
			t.Errorf("theorem2 rank %d: %v", rank, got)
		}
	}
}

func TestFixedKModeEndToEnd(t *testing.T) {
	const n = 1 << 16
	s := mustFloat64(t, WithK(50*2), WithSeed(16))
	s.UpdateBatch(permStream(n, 17))
	if s.K() != 100 {
		t.Fatalf("K = %d", s.K())
	}
	for rank := 64; rank <= n; rank *= 4 {
		got := float64(s.Rank(float64(rank - 1)))
		if math.Abs(got-float64(rank))/float64(rank) > 0.1 {
			t.Errorf("fixedk rank %d: %v", rank, got)
		}
	}
}

// weightedItem is one coreset entry, materialized from Sketch.All.
type weightedItem struct {
	Item   float64
	Weight uint64
}

// coresetOf collects the sketch's weighted coreset from its All iterator.
func coresetOf(s *Float64) []weightedItem {
	var out []weightedItem
	for item, w := range s.All() {
		out = append(out, weightedItem{item, w})
	}
	return out
}

func TestRetainedCoreset(t *testing.T) {
	s := mustFloat64(t, WithEpsilon(0.05), WithSeed(200))
	const n = 1 << 16
	s.UpdateBatch(permStream(n, 201))
	coreset := coresetOf(s)
	if len(coreset) != s.ItemsRetained() {
		t.Fatalf("coreset size %d != retained %d", len(coreset), s.ItemsRetained())
	}
	var total uint64
	prev := math.Inf(-1)
	for _, wi := range coreset {
		if wi.Item < prev {
			t.Fatal("coreset not ascending")
		}
		prev = wi.Item
		if wi.Weight == 0 {
			t.Fatal("zero-weight entry")
		}
		total += wi.Weight
	}
	if total != s.Count() {
		t.Fatalf("coreset weight %d != n %d", total, s.Count())
	}
	// Rank reconstruction from the coreset must match the sketch.
	run := uint64(0)
	for _, wi := range coreset[:100] {
		run += wi.Weight
		if got := s.Rank(wi.Item); got != run {
			// Duplicate items share ranks; recompute via <=.
			var recount uint64
			for _, o := range coreset {
				if o.Item <= wi.Item {
					recount += o.Weight
				}
			}
			if got != recount {
				t.Fatalf("rank mismatch at %v: %d vs %d", wi.Item, got, recount)
			}
		}
	}
}

func TestResetReusable(t *testing.T) {
	s := mustFloat64(t, WithEpsilon(0.05), WithSeed(210))
	s.UpdateBatch(permStream(1<<16, 211))
	if s.Empty() {
		t.Fatal("setup")
	}
	s.Reset()
	if !s.Empty() || s.Count() != 0 || s.ItemsRetained() != 0 {
		t.Fatal("reset did not empty the sketch")
	}
	if _, ok := s.Min(); ok {
		t.Fatal("min survives reset")
	}
	// Reuse after reset must meet the guarantee again.
	s.UpdateBatch(permStream(1<<16, 212))
	for rank := 1; rank <= 1<<16; rank *= 8 {
		got := float64(s.Rank(float64(rank - 1)))
		if math.Abs(got-float64(rank))/float64(rank) > 0.05 {
			t.Fatalf("post-reset rank %d: %v", rank, got)
		}
	}
}
