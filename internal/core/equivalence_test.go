package core

// Old-vs-new equivalence: refSketch below is a frozen copy of the
// pre-refactor engine (unsorted buffers, full quicksort at every compaction,
// linear-scan ranks, sort-based view), specialised to float64. The tests run
// it side by side with the sorted-compactor implementation on identical
// seeded streams and assert bit-identical behaviour: same retained items per
// level, same schedule states, same random-stream position (so the same coin
// flips were consumed in the same order), and identical Rank / Quantile /
// CDF answers — including across Merge and stream-length growth.

import (
	"math"
	"sort"
	"testing"

	"req/internal/rng"
	"req/internal/schedule"
)

type refCompactor struct {
	buf   []float64
	state schedule.State
}

type refSketch struct {
	less      func(a, b float64) bool
	cfg       Config
	rnd       *rng.Source
	levels    []refCompactor
	n         uint64
	bound     uint64
	geom      geometry
	min, max  float64
	hasMinMax bool
}

func newRefSketch(t *testing.T, cfg Config) *refSketch {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := &refSketch{less: fless, cfg: cfg, rnd: rng.New(cfg.Seed)}
	r.bound = cfg.initialBound()
	r.geom = cfg.geometryFor(r.bound)
	r.levels = make([]refCompactor, 1, 8)
	r.levels[0].buf = make([]float64, 0, r.geom.b)
	return r
}

func (r *refSketch) internalLess(a, b float64) bool {
	if r.cfg.HRA {
		return r.less(b, a)
	}
	return r.less(a, b)
}

func (r *refSketch) update(x float64) {
	if !r.hasMinMax {
		r.min, r.max = x, x
		r.hasMinMax = true
	} else {
		if r.less(x, r.min) {
			r.min = x
		}
		if r.less(r.max, x) {
			r.max = x
		}
	}
	if r.n+1 > r.bound {
		r.growTo(r.n + 1)
	}
	r.levels[0].buf = append(r.levels[0].buf, x)
	r.n++
	if len(r.levels[0].buf) >= r.geom.b {
		r.compactCascade(0)
	}
}

func (r *refSketch) compactCascade(h int) {
	for ; h < len(r.levels); h++ {
		if len(r.levels[h].buf) >= r.geom.b {
			r.compactLevel(h)
		}
	}
}

func (r *refSketch) compactLevel(h int) {
	c := &r.levels[h]
	sortSlice(c.buf, r.internalLess)
	secs := schedule.SectionsFor(r.cfg.Schedule, c.state, r.geom.nsec)
	keep := r.geom.b - secs*r.geom.k
	if keep < 0 {
		keep = 0
	}
	if keep > len(c.buf) {
		keep = len(c.buf)
	}
	r.emitHalf(h, keep)
	c = &r.levels[h]
	c.state = c.state.Next()
}

func (r *refSketch) specialCompactLevel(h int) bool {
	c := &r.levels[h]
	keep := r.geom.b / 2
	if len(c.buf) <= keep {
		return false
	}
	sortSlice(c.buf, r.internalLess)
	r.emitHalf(h, keep)
	c = &r.levels[h]
	c.state = c.state.Next()
	return true
}

func (r *refSketch) emitHalf(h, keep int) {
	c := &r.levels[h]
	if (len(c.buf)-keep)%2 != 0 {
		keep++
	}
	region := c.buf[keep:]
	if len(region) == 0 {
		return
	}
	offset := 0
	if !r.cfg.DetCoin {
		if r.rnd.Coin() {
			offset = 1
		}
	}
	if h+1 >= len(r.levels) {
		r.levels = append(r.levels, refCompactor{buf: make([]float64, 0, r.geom.b)})
		c = &r.levels[h]
		region = c.buf[keep:]
	}
	next := &r.levels[h+1]
	for i := offset; i < len(region); i += 2 {
		next.buf = append(next.buf, region[i])
	}
	c.buf = c.buf[:keep]
}

func (r *refSketch) growTo(need uint64) {
	for r.bound < need {
		for h := 0; h < len(r.levels)-1; h++ {
			r.specialCompactLevel(h)
		}
		r.bound = squareBound(r.bound)
		r.geom = r.cfg.geometryFor(r.bound)
		r.compactCascade(0)
		if r.bound == maxBound {
			return
		}
	}
}

func (r *refSketch) clone() *refSketch {
	c := *r
	c.rnd = rng.New(0)
	c.rnd.Restore(r.rnd.State())
	c.levels = make([]refCompactor, len(r.levels))
	for i := range r.levels {
		c.levels[i] = r.levels[i]
		c.levels[i].buf = append([]float64(nil), r.levels[i].buf...)
	}
	return &c
}

// merge replays the pre-refactor Merge (Algorithm 3 / Appendix D) including
// its exact random-stream handover, minus the instrumentation counters.
func (r *refSketch) merge(o *refSketch) {
	if o == nil || o.n == 0 {
		return
	}
	if r.n == 0 {
		c := o.clone()
		c.rnd = r.rnd
		c.cfg.Seed = r.cfg.Seed
		*r = *c
		return
	}
	var m, src *refSketch
	if len(o.levels) > len(r.levels) {
		m = o.clone()
		m.rnd = r.rnd
		m.cfg.Seed = r.cfg.Seed
		src = r
	} else {
		m = r
		src = o
	}
	total := r.n + o.n
	if m.bound < total {
		for h := 0; h < len(m.levels)-1; h++ {
			m.specialCompactLevel(h)
		}
		for m.bound < total && m.bound < maxBound {
			m.bound = squareBound(m.bound)
		}
		m.geom = m.cfg.geometryFor(m.bound)
	}
	if src.bound < m.bound {
		needsSpecial := false
		for h := 0; h < len(src.levels)-1; h++ {
			if len(src.levels[h].buf) > src.geom.b/2 {
				needsSpecial = true
				break
			}
		}
		if needsSpecial {
			src = src.clone()
			src.rnd = m.rnd
			for h := 0; h < len(src.levels)-1; h++ {
				src.specialCompactLevel(h)
			}
		}
	}
	for h := range src.levels {
		if h >= len(m.levels) {
			m.levels = append(m.levels, refCompactor{buf: make([]float64, 0, m.geom.b)})
		}
		dst := &m.levels[h]
		dst.state = schedule.Combine(dst.state, src.levels[h].state)
		dst.buf = append(dst.buf, src.levels[h].buf...)
	}
	m.n = total
	if src.hasMinMax {
		if !m.hasMinMax {
			m.min, m.max, m.hasMinMax = src.min, src.max, true
		} else {
			if m.less(src.min, m.min) {
				m.min = src.min
			}
			if m.less(m.max, src.max) {
				m.max = src.max
			}
		}
	}
	m.compactCascade(0)
	if m != r {
		*r = *m
	}
}

func (r *refSketch) rank(y float64) uint64 {
	var out uint64
	for h := range r.levels {
		cnt := 0
		for _, x := range r.levels[h].buf {
			if !r.less(y, x) {
				cnt++
			}
		}
		out += uint64(cnt) << uint(h)
	}
	return out
}

func (r *refSketch) rankExclusive(y float64) uint64 {
	var out uint64
	for h := range r.levels {
		cnt := 0
		for _, x := range r.levels[h].buf {
			if r.less(x, y) {
				cnt++
			}
		}
		out += uint64(cnt) << uint(h)
	}
	return out
}

// quantile replays the pre-refactor Sketch.Quantile → View.Quantile chain:
// collect all weighted items, sort, and pick the first with cumulative
// weight ≥ ⌈φ·n⌉.
func (r *refSketch) quantile(phi float64) (float64, bool) {
	if r.n == 0 || math.IsNaN(phi) || phi < 0 || phi > 1 {
		return 0, false
	}
	if phi == 0 {
		return r.min, true
	}
	if phi == 1 {
		return r.max, true
	}
	type wi struct {
		item float64
		w    uint64
	}
	var all []wi
	for h := range r.levels {
		w := uint64(1) << uint(h)
		for _, x := range r.levels[h].buf {
			all = append(all, wi{x, w})
		}
	}
	sort.Slice(all, func(i, j int) bool { return r.less(all[i].item, all[j].item) })
	target := uint64(math.Ceil(phi * float64(r.n)))
	if target == 0 {
		target = 1
	}
	if target > r.n {
		target = r.n
	}
	var run uint64
	for _, e := range all {
		run += e.w
		if run >= target {
			return e.item, true
		}
	}
	return r.max, true
}

// compareSketches asserts the new engine and the reference are in
// bit-identical states and answer identically.
func compareSketches(t *testing.T, s *Sketch[float64], r *refSketch, probes []float64) {
	t.Helper()
	if s.Count() != r.n {
		t.Fatalf("count: new %d, ref %d", s.Count(), r.n)
	}
	if s.Bound() != r.bound {
		t.Fatalf("bound: new %d, ref %d", s.Bound(), r.bound)
	}
	if s.NumLevels() != len(r.levels) {
		t.Fatalf("levels: new %d, ref %d", s.NumLevels(), len(r.levels))
	}
	if s.rnd.State() != r.rnd.State() {
		t.Fatalf("random stream diverged: the implementations consumed different coin sequences")
	}
	if r.hasMinMax {
		mn, _ := s.Min()
		mx, _ := s.Max()
		if mn != r.min || mx != r.max {
			t.Fatalf("min/max: new (%v, %v), ref (%v, %v)", mn, mx, r.min, r.max)
		}
	}
	for h := range r.levels {
		if s.levels[h].state != r.levels[h].state {
			t.Fatalf("level %d state: new %b, ref %b", h, s.levels[h].state, r.levels[h].state)
		}
		a := append([]float64(nil), s.levels[h].buf...)
		b := append([]float64(nil), r.levels[h].buf...)
		sort.Float64s(a)
		sort.Float64s(b)
		if len(a) != len(b) {
			t.Fatalf("level %d size: new %d, ref %d", h, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("level %d item %d: new %v, ref %v", h, i, a[i], b[i])
			}
		}
	}
	for _, y := range probes {
		if got, want := s.Rank(y), r.rank(y); got != want {
			t.Fatalf("Rank(%v): new %d, ref %d", y, got, want)
		}
		if got, want := s.RankExclusive(y), r.rankExclusive(y); got != want {
			t.Fatalf("RankExclusive(%v): new %d, ref %d", y, got, want)
		}
	}
	for _, phi := range []float64{0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		want, ok := r.quantile(phi)
		got, err := s.Quantile(phi)
		if !ok {
			if err == nil {
				t.Fatalf("Quantile(%v): ref rejected, new accepted", phi)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Quantile(%v): %v", phi, err)
		}
		if got != want {
			t.Fatalf("Quantile(%v): new %v, ref %v", phi, got, want)
		}
	}
	// Ranks must still agree when answered by the view (the quantile loop
	// above read the levels and built none).
	v := s.sortedView()
	for _, y := range probes {
		if got, want := v.Rank(y), r.rank(y); got != want {
			t.Fatalf("frozen Rank(%v): new %d, ref %d", y, got, want)
		}
	}
	verifyViewEngine(t, s, probes)
}

// verifyViewEngine cross-checks the whole read path against itself: the
// Work's (storage-recycled) view against a from-scratch rebuild on a clone,
// the view's binary searches against a linear scan, and every batch API
// against its single-probe counterpart. Called from compareSketches, it runs
// at intervals across streams, merges, growths, clones, and serde
// round-trips.
func verifyViewEngine(t *testing.T, s *Sketch[float64], probes []float64) {
	t.Helper()
	v := s.sortedView()
	fresh := s.Clone().sortedView() // a clone has no Work yet: from scratch
	if len(v.Items()) != len(fresh.Items()) || v.Count() != fresh.Count() {
		t.Fatalf("recycled view shape (%d items, w=%d) != from-scratch (%d items, w=%d)",
			len(v.Items()), v.Count(), len(fresh.Items()), fresh.Count())
	}
	for i, x := range v.Items() {
		if x != fresh.Items()[i] {
			t.Fatalf("recycled view item %d = %v, from-scratch %v", i, x, fresh.Items()[i])
		}
	}
	// Cumulative weights may legitimately differ from a from-scratch build
	// only inside runs of tied items (merge order among equal values is not
	// pinned); answers must not. Compare answers at every retained item plus
	// the probes.
	for _, y := range probes {
		if v.Rank(y) != fresh.Rank(y) || v.RankExclusive(y) != fresh.RankExclusive(y) {
			t.Fatalf("recycled view rank at %v diverges from from-scratch build", y)
		}
	}
	for _, y := range v.Items() {
		if v.Rank(y) != fresh.Rank(y) {
			t.Fatalf("recycled view rank at retained item %v diverges from from-scratch build", y)
		}
	}

	// Binary searches vs a linear scan, on the same view.
	binRank := make(map[float64]uint64, len(probes))
	binRankX := make(map[float64]uint64, len(probes))
	for _, y := range probes {
		binRank[y] = v.Rank(y)
		binRankX[y] = v.RankExclusive(y)
	}
	phis := []float64{0, 1e-9, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1}
	binQ := make([]float64, len(phis))
	for i, phi := range phis {
		q, err := v.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		binQ[i] = q
	}
	for _, y := range probes {
		le, lt := scanRanks(v, y)
		if binRank[y] != le {
			t.Fatalf("Rank(%v) = %d, linear scan %d", y, binRank[y], le)
		}
		if binRankX[y] != lt {
			t.Fatalf("RankExclusive(%v) = %d, linear scan %d", y, binRankX[y], lt)
		}
	}
	for i, phi := range phis {
		if want := scanQuantile(v, phi); binQ[i] != want {
			t.Fatalf("Quantile(%v) = %v, linear scan %v", phi, binQ[i], want)
		}
	}

	// Batch APIs vs single probes, in given (unsorted) and sorted order.
	ranks := s.RankBatch(nil, probes)
	nranks := s.NormalizedRankBatch(nil, probes)
	for i, y := range probes {
		if ranks[i] != binRank[y] {
			t.Fatalf("RankBatch[%d] (y=%v) = %d, single %d", i, y, ranks[i], binRank[y])
		}
		want := 0.0
		if s.Count() > 0 {
			want = float64(binRank[y]) / float64(s.Count())
		}
		if nranks[i] != want {
			t.Fatalf("NormalizedRankBatch[%d] = %v, single %v", i, nranks[i], want)
		}
	}
	sortedProbes := append([]float64(nil), probes...)
	sort.Float64s(sortedProbes)
	ranks = s.RankBatch(ranks, sortedProbes) // reuse dst across calls
	for i, y := range sortedProbes {
		if ranks[i] != binRank[y] {
			t.Fatalf("sorted RankBatch[%d] (y=%v) = %d, single %d", i, y, ranks[i], binRank[y])
		}
	}
	qs, err := s.QuantilesInto(nil, phis)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []float64{0.9, 0.001, 1, 0.5, 0, 0.25}
	qs2, err := s.QuantilesInto(nil, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		if qs[i] != binQ[i] {
			t.Fatalf("QuantilesInto(%v) = %v, single %v", phi, qs[i], binQ[i])
		}
	}
	for i, phi := range shuffled {
		want, err := s.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if qs2[i] != want {
			t.Fatalf("unsorted QuantilesInto(%v) = %v, single %v", phi, qs2[i], want)
		}
	}
	cdf, err := s.CDFInto(nil, sortedProbes)
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range sortedProbes {
		want := float64(binRank[y]) / float64(s.Count())
		if cdf[i] != want {
			t.Fatalf("CDFInto[%d] = %v, want %v", i, cdf[i], want)
		}
	}
	if cdf[len(sortedProbes)] != 1 {
		t.Fatalf("CDFInto tail = %v", cdf[len(sortedProbes)])
	}
}

// equivProbes builds rank probes spanning below, inside, and above the
// stream's value range.
func equivProbes(r *rng.Source, lo, hi float64) []float64 {
	out := []float64{lo - 1, lo, hi, hi + 1}
	for i := 0; i < 24; i++ {
		out = append(out, lo+(hi-lo)*r.Float64())
	}
	return out
}

func TestEquivalenceOldVsNewStream(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		n    int
	}{
		{"eps", Config{Eps: 0.05, Delta: 0.05, Seed: 777}, 60000},
		{"hra", Config{Eps: 0.05, Delta: 0.05, Seed: 778, HRA: true}, 60000},
		{"fixedk", Config{Mode: ModeFixedK, K: 8, Seed: 779}, 40000},
		{"growth", Config{Eps: 0.1, Delta: 0.1, N0: 1 << 8, Seed: 780}, 30000},
		{"detcoin", Config{Eps: 0.1, Delta: 0.1, DetCoin: true, Seed: 781}, 30000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(fless, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSketch(t, tc.cfg)
			src := rng.New(4242)
			probes := equivProbes(rng.New(99), 0, 6250)
			for i := 0; i < tc.n; i++ {
				// Quantised values so the stream carries duplicates: ties
				// must not break equivalence.
				v := math.Floor(src.Float64()*100000) / 16
				s.Update(v)
				ref.update(v)
				if i%9973 == 0 {
					compareSketches(t, s, ref, probes)
				}
			}
			compareSketches(t, s, ref, probes)
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEquivalenceOldVsNewMerge(t *testing.T) {
	cfg := Config{Eps: 0.08, Delta: 0.1, N0: 1 << 10, Seed: 0}
	mk := func(seed uint64, n int) (*Sketch[float64], *refSketch) {
		c := cfg
		c.Seed = seed
		s, err := New(fless, c)
		if err != nil {
			t.Fatal(err)
		}
		r := newRefSketch(t, c)
		src := rng.New(seed * 31)
		for i := 0; i < n; i++ {
			v := math.Floor(src.Float64() * 1e6)
			s.Update(v)
			r.update(v)
		}
		return s, r
	}
	probes := equivProbes(rng.New(7), 0, 1e6)

	// Short into tall, tall into short, into empty, and a chain of merges
	// crossing a growth boundary — every branch of Algorithm 3.
	sTall, rTall := mk(11, 50000)
	sShort, rShort := mk(22, 800)
	if err := sTall.Merge(sShort); err != nil {
		t.Fatal(err)
	}
	rTall.merge(rShort)
	compareSketches(t, sTall, rTall, probes)

	sShort2, rShort2 := mk(33, 700)
	sTall2, rTall2 := mk(44, 60000)
	if err := sShort2.Merge(sTall2); err != nil {
		t.Fatal(err)
	}
	rShort2.merge(rTall2)
	compareSketches(t, sShort2, rShort2, probes)

	cEmpty := cfg
	cEmpty.Seed = 55
	sEmpty, err := New(fless, cEmpty)
	if err != nil {
		t.Fatal(err)
	}
	rEmpty := newRefSketch(t, cEmpty)
	sDonor, rDonor := mk(66, 20000)
	if err := sEmpty.Merge(sDonor); err != nil {
		t.Fatal(err)
	}
	rEmpty.merge(rDonor)
	compareSketches(t, sEmpty, rEmpty, probes)

	// Chain: the accumulated sketch outgrows its bound repeatedly.
	sAcc, rAcc := mk(77, 400)
	for i := 0; i < 6; i++ {
		sPart, rPart := mk(uint64(100+i), 3000+500*i)
		if err := sAcc.Merge(sPart); err != nil {
			t.Fatal(err)
		}
		rAcc.merge(rPart)
		compareSketches(t, sAcc, rAcc, probes)
	}
	if err := sAcc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalenceSurvivesCloneAndSnapshot(t *testing.T) {
	cfg := Config{Eps: 0.05, Delta: 0.05, Seed: 31337}
	s, err := New(fless, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSketch(t, cfg)
	src := rng.New(5151)
	for i := 0; i < 30000; i++ {
		v := src.Float64()
		s.Update(v)
		ref.update(v)
	}
	probes := equivProbes(rng.New(8), 0, 1)

	// A serde round-trip and a clone must stay on the identical coin stream
	// and keep answering identically to the reference.
	restored, err := FromSnapshot(fless, s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	clone := s.Clone()
	for i := 0; i < 20000; i++ {
		v := src.Float64()
		restored.Update(v)
		clone.Update(v)
		ref.update(v)
	}
	compareSketches(t, restored, ref, probes)
	cloneRef := ref.clone()
	compareSketches(t, clone, cloneRef, probes)
}
