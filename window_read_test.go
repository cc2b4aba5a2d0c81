package req

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"req/internal/core"
)

// windowOracle is the exact reference for windowed reads: a View built by
// core.FrozenFromParts, and checked by VerifyStructure, over the live
// slots' Snapshot levels, each level's items at weight 2^h, with the
// slots' exact extremes. Liveness is recomputed here from the slot tags
// (floored epoch, ep−slots < tag ≤ ep) rather than borrowed from the
// registry. less is the order w was built with. ok is false when key is
// absent.
func windowOracle[K comparable, T any](t testing.TB, w *WindowedRegistry[K, T], less func(a, b T) bool, key K) (f core.View[T], ok bool) {
	t.Helper()
	now := w.now()
	ep := now / w.slotNanos
	if now%w.slotNanos < 0 {
		ep--
	}
	sh := w.m.Lock(key)
	defer sh.Unlock()
	e := w.m.Peek(sh, key, now)
	if e == nil {
		return f, false
	}
	type weighted struct {
		x T
		w uint64
	}
	var all []weighted
	var n uint64
	var mn, mx T
	has := false
	for i := range e.ring {
		tag := e.epochs[i]
		if tag == unwritten || tag > ep || ep-tag >= int64(w.slots) {
			continue
		}
		snap := e.ring[i].Snapshot()
		for h, lv := range snap.Levels {
			for _, x := range lv.Items {
				all = append(all, weighted{x, uint64(1) << uint(h)})
			}
		}
		n += snap.N
		if snap.HasMinMax {
			if !has || less(snap.Min, mn) {
				mn = snap.Min
			}
			if !has || less(mx, snap.Max) {
				mx = snap.Max
			}
			has = true
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return less(all[i].x, all[j].x) })
	items, cum := make([]T, len(all)), make([]uint64, len(all))
	var run uint64
	for i, a := range all {
		run += a.w
		items[i], cum[i] = a.x, run
	}
	f, err := core.FrozenFromParts(core.TableFor(less), n, mn, mx, has, items, cum)
	if err == nil {
		err = f.VerifyStructure()
	}
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return f, true
}

// readPhis are the φ sets every windowed read check asks: a sorted
// dashboard set, an unsorted one with a repeat, the exact extremes, ranks
// at the edges of (0, 1), no φ at all, and sets holding a bad φ.
var readPhis = [][]float64{
	{0.5, 0.9, 0.99},
	{0.99, 0.01, 0.5, 0.5, 0.25, 0.75},
	{0, 1, 0.5},
	{1, 0.001, 0},
	{1e-9, 0.999999},
	{},
	{-0.1},
	{0.5, 1.1},
	{math.NaN()},
}

// checkWindowReads compares every read of key against windowOracle: Count,
// QuantilesInto over readPhis, Quantile per φ, Rank at retained items and
// at the probes, and the error paths (absent key, empty window, bad φ).
// same decides answer equality: bit identity, or equality under the order
// less that w was built with, for streams with distinct-but-equal items.
func checkWindowReads[K comparable, T any](t *testing.T, w *WindowedRegistry[K, T], less func(a, b T) bool, key K, probes []T, same func(a, b T) bool) {
	t.Helper()
	f, ok := windowOracle(t, w, less, key)
	if !ok {
		if _, err := w.QuantilesInto(key, nil, readPhis[0]); !errors.Is(err, ErrNoKey) {
			t.Fatalf("absent key: QuantilesInto error %v, want ErrNoKey", err)
		}
		if _, err := w.Quantile(key, 0.5); !errors.Is(err, ErrNoKey) {
			t.Fatalf("absent key: Quantile error %v, want ErrNoKey", err)
		}
		if _, err := w.Rank(key, probes[0]); !errors.Is(err, ErrNoKey) {
			t.Fatalf("absent key: Rank error %v, want ErrNoKey", err)
		}
		return
	}
	if got, want := w.Count(key), f.Count(); got != want {
		t.Fatalf("Count = %d, oracle %d", got, want)
	}
	var dst []T
	for _, phis := range readPhis {
		want, werr := f.QuantilesInto(nil, phis)
		got, err := w.QuantilesInto(key, dst, phis)
		if !errors.Is(err, werr) || (werr == nil) != (err == nil) {
			t.Fatalf("QuantilesInto(%v) error %v, oracle %v", phis, err, werr)
		}
		if err == nil {
			dst = got
			if len(got) != len(want) {
				t.Fatalf("QuantilesInto(%v) = %v, oracle %v", phis, got, want)
			}
			for i := range want {
				if !same(got[i], want[i]) {
					t.Fatalf("QuantilesInto(%v)[%d] = %v, oracle %v", phis, i, got[i], want[i])
				}
			}
		}
		for _, phi := range phis {
			want, werr := f.Quantile(phi)
			got, err := w.Quantile(key, phi)
			if !errors.Is(err, werr) || (werr == nil) != (err == nil) || (err == nil && !same(got, want)) {
				t.Fatalf("Quantile(%v) = %v, %v; oracle %v, %v", phi, got, err, want, werr)
			}
		}
	}
	items := f.Items()
	for i := 0; i < len(items); i += 1 + len(items)/64 {
		probes = append(probes, items[i])
	}
	for _, y := range probes {
		got, err := w.Rank(key, y)
		if err != nil || got != f.Rank(y) {
			t.Fatalf("Rank(%v) = %d, %v; oracle %d", y, got, err, f.Rank(y))
		}
	}
}

// windowCase is one element type and order the windowed read path must
// answer exactly for.
type windowCase[T any] struct {
	name string
	less func(a, b T) bool
	gen  func(r *rand.Rand) T
	same func(a, b T) bool
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// runWindowScenario drives one registry through the ring states a read
// must handle — full and partial slots, an empty current slot, exact
// rotation boundaries, a clock jump past the ring, keys fed by every
// ingest path — and checks the reads against the oracle at each.
func runWindowScenario[T any](t *testing.T, c windowCase[T], hra bool) {
	clk := &fakeClock{}
	opts := []Option{WithK(8), WithSeed(31), WithShards(2), WithWindow(4, time.Second), clk.opt()}
	if hra {
		opts = append(opts, WithHighRankAccuracy())
	}
	w, err := NewWindowedRegistry[string, T](c.less, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	// feed sends n items to key through Update, UpdatePairs and one
	// closing UpdateBatch.
	feed := func(key string, n int) {
		var batch []T
		for i := 0; i < n; i++ {
			switch x := c.gen(r); i % 3 {
			case 0:
				w.Update(key, x)
			case 1:
				w.UpdatePairs([]string{key}, []T{x})
			default:
				batch = append(batch, x)
			}
		}
		w.UpdateBatch(key, batch)
	}
	probes := []T{c.gen(r), c.gen(r), c.gen(r)}
	check := func(step string) {
		t.Helper()
		for _, key := range []string{"a", "b", "absent"} {
			t.Run(step+"/"+key, func(t *testing.T) { checkWindowReads(t, w, c.less, key, probes, c.same) })
		}
	}
	feed("a", 3000)
	feed("b", 5)
	check("first slot")
	clk.set(1500 * time.Millisecond)
	feed("a", 700)
	check("partial current slot")
	clk.set(2 * time.Second)
	check("empty current slot on a boundary")
	feed("a", 1)
	feed("b", 2000)
	check("one item in the current slot")
	clk.set(3999 * time.Millisecond)
	feed("a", 2500)
	clk.set(4 * time.Second)
	check("rotation boundary, oldest slot out")
	feed("a", 1200)
	check("rotated slot refilled")
	clk.set(20 * time.Second)
	check("clock jump past the ring")
	feed("a", 40)
	check("refilled after the jump")
}

func TestWindowedReadsMatchUnionOracle(t *testing.T) {
	f64 := windowCase[float64]{
		name: "Float64/kernel",
		less: core.LessF64,
		gen:  func(r *rand.Rand) float64 { return r.NormFloat64() * 1e3 },
		same: bitsEqual,
	}
	u64 := windowCase[uint64]{
		name: "Uint64/kernel",
		less: core.LessU64,
		gen:  func(r *rand.Rand) uint64 { return r.Uint64() >> uint(r.Intn(64)) },
		same: func(a, b uint64) bool { return a == b },
	}
	// A descending closure order: the generic paths, and an order the
	// union must honour rather than assume ascending.
	desc := windowCase[float64]{
		name: "closure/descending",
		less: func(a, b float64) bool { return a > b },
		gen:  func(r *rand.Rand) float64 { return math.Round(r.ExpFloat64()*1e4) / 16 },
		same: bitsEqual,
	}
	for _, hra := range []bool{false, true} {
		mode := "LRA"
		if hra {
			mode = "HRA"
		}
		t.Run(f64.name+"/"+mode, func(t *testing.T) { runWindowScenario(t, f64, hra) })
		t.Run(u64.name+"/"+mode, func(t *testing.T) { runWindowScenario(t, u64, hra) })
		t.Run(desc.name+"/"+mode, func(t *testing.T) { runWindowScenario(t, desc, hra) })
	}
}

// TestWindowedReadsSignedZero feeds a stream that is mostly −0 and +0: the
// two are equal under < but differ in bits, so which one a read returns
// depends on the retained order of equal items. Answers must be equal to
// the oracle's under the order.
func TestWindowedReadsSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	gen := func(r *rand.Rand) float64 {
		switch r.Intn(8) {
		case 0:
			return float64(r.Intn(5) - 2)
		case 1, 2, 3:
			return negZero
		default:
			return 0
		}
	}
	eq := func(a, b float64) bool { return !(a < b) && !(b < a) }
	for _, hra := range []bool{false, true} {
		t.Run(fmt.Sprintf("kernel/hra=%v", hra), func(t *testing.T) {
			runWindowScenario(t, windowCase[float64]{less: core.LessF64, gen: gen, same: eq}, hra)
		})
		t.Run(fmt.Sprintf("closure/hra=%v", hra), func(t *testing.T) {
			runWindowScenario(t, windowCase[float64]{less: func(a, b float64) bool { return a < b }, gen: gen, same: eq}, hra)
		})
	}
}

// TestWindowedNegativeClock is the regression test for clock readings
// before zero: epochs floor toward −∞ and the ring index stays in range,
// so every ingest and read path works before t = 0 and across it.
func TestWindowedNegativeClock(t *testing.T) {
	clk := &fakeClock{}
	w, err := NewWindowedRegistryFloat64(WithK(8), WithSeed(3), WithWindow(3, time.Minute), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	clk.set(-90 * time.Second) // epoch −2
	w.Update("k", 1)
	w.UpdatePairs([]string{"k", "k"}, []float64{2, 3})
	if n := w.Count("k"); n != 3 {
		t.Fatalf("Count = %d at −90s, want 3", n)
	}
	qs, err := w.QuantilesInto("k", nil, []float64{0, 0.5, 1})
	if err != nil || qs[0] != 1 || qs[1] != 2 || qs[2] != 3 {
		t.Fatalf("QuantilesInto at −90s = %v, %v; want [1 2 3]", qs, err)
	}
	if r, err := w.Rank("k", 2); err != nil || r != 2 {
		t.Fatalf("Rank(2) at −90s = %d, %v; want 2", r, err)
	}
	clk.set(-time.Second) // epoch −1: the −2 slot is still live
	w.Update("k", 4)
	clk.set(0) // epoch 0: slots −2, −1 and 0 make the window
	w.UpdatePairs([]string{"k"}, []float64{5})
	if n := w.Count("k"); n != 5 {
		t.Fatalf("Count = %d at 0, want 5", n)
	}
	if q, err := w.Quantile("k", 1); err != nil || q != 5 {
		t.Fatalf("max at 0 = %v, %v; want 5", q, err)
	}
	clk.set(time.Minute) // epoch 1: epoch −2 ages out
	if n := w.Count("k"); n != 2 {
		t.Fatalf("Count = %d at 1m, want 2", n)
	}
	if q, err := w.Quantile("k", 0); err != nil || q != 4 {
		t.Fatalf("min at 1m = %v, %v; want 4", q, err)
	}
	if r, err := w.Rank("k", 4.5); err != nil || r != 1 {
		t.Fatalf("Rank(4.5) at 1m = %d, %v; want 1", r, err)
	}
	checkWindowReads(t, w, core.LessF64, "k", []float64{0, 4, 9}, bitsEqual)
}

// TestWindowedClockStepsBack: slots stamped at a later epoch than the
// clock now reads lie outside the window ending now, and come back once
// the clock catches up.
func TestWindowedClockStepsBack(t *testing.T) {
	clk := &fakeClock{}
	w, err := NewWindowedRegistryFloat64(WithK(8), WithWindow(3, time.Minute), clk.opt())
	if err != nil {
		t.Fatal(err)
	}
	clk.set(5 * time.Minute)
	w.Update("k", 10)
	clk.set(3 * time.Minute)
	if n := w.Count("k"); n != 0 {
		t.Fatalf("Count = %d two epochs back, want 0", n)
	}
	if _, err := w.Quantile("k", 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Quantile two epochs back: %v, want ErrEmpty", err)
	}
	w.Update("k", 20)
	if q, err := w.Quantile("k", 1); err != nil || q != 20 || w.Count("k") != 1 {
		t.Fatalf("max two epochs back = %v, %v (Count %d); want 20 alone", q, err, w.Count("k"))
	}
	clk.set(5 * time.Minute)
	if r, err := w.Rank("k", 15); err != nil || r != 1 || w.Count("k") != 2 {
		t.Fatalf("Rank(15) caught up = %d, %v (Count %d); want 1 of 2", r, err, w.Count("k"))
	}
	checkWindowReads(t, w, core.LessF64, "k", []float64{0, 15, 30}, bitsEqual)
}

// FuzzWindowedReads drives a windowed registry with fuzzer-chosen clock
// steps (negative, backward, multi-epoch jumps), batch shapes and reads,
// and checks that nothing panics, that Count equals an exact model of the
// ring, and that every read equals windowOracle.
func FuzzWindowedReads(f *testing.F) {
	f.Add([]byte{0x10, 0x41, 0x07, 0x22, 0x93, 0x05, 0xF0, 0x31, 0x02, 0x88})
	f.Add([]byte{0x80, 0x00, 0xFF, 0x7F, 0x01, 0x40, 0x3C, 0xC3, 0x55, 0xAA, 0x12})
	f.Add([]byte("window reads, rotations and jumps"))
	// Fill two epochs, step back over them, read, write, catch up, read.
	f.Add([]byte{0x01, 0x20, 0x00, 0x81, 0x02, 0x10, 0x00, 0xFC, 0x04, 0x00, 0x01, 0x05, 0x00, 0x84, 0x04, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const slots = 3
		slot := int64(time.Second)
		var now int64
		w, err := NewWindowedRegistryFloat64(WithK(4), WithSeed(9), WithShards(2),
			WithWindow(slots, time.Second), WithClock(func() int64 { return now }))
		if err != nil {
			t.Fatal(err)
		}
		// The model: for every key and ring index, the epoch last written
		// there and how many items it holds.
		type modelSlot struct {
			tag int64
			n   uint64
		}
		model := map[string]*[slots]modelSlot{}
		epoch := func() int64 {
			ep := now / slot
			if now%slot < 0 {
				ep--
			}
			return ep
		}
		write := func(key string, n int) {
			m := model[key]
			if m == nil {
				m = new([slots]modelSlot)
				for i := range m {
					m[i].tag = math.MinInt64
				}
				model[key] = m
			}
			ep := epoch()
			i := ((ep % slots) + slots) % slots
			if m[i].tag != ep {
				m[i] = modelSlot{tag: ep}
			}
			m[i].n += uint64(n)
		}
		count := func(key string) uint64 {
			var n uint64
			ep := epoch()
			if m := model[key]; m != nil {
				for _, s := range m {
					if s.tag != math.MinInt64 && s.tag <= ep && ep-s.tag < slots {
						n += s.n
					}
				}
			}
			return n
		}
		keys := []string{"a", "b", "c"}
		var ks []string
		var vs []float64
		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			key := keys[int(op>>6)%len(keys)]
			switch op & 7 {
			case 0: // clock step: −8..+7 quarter slots, or a jump of arg epochs
				if arg&0x80 != 0 {
					now += int64(int8(arg<<1)) * slot
				} else {
					now += int64(int(arg&15)-8) * slot / 4
				}
			case 1: // single updates
				for i := 0; i < int(arg&31)+1; i++ {
					w.Update(key, float64(int(arg)*7+i*13)/4)
				}
				write(key, int(arg&31)+1)
			case 2: // one batch of arg·4 items
				vs = vs[:0]
				for i := 0; i < int(arg)*4; i++ {
					vs = append(vs, float64((i*int(arg+1)*2654435761)%100003))
				}
				w.UpdateBatch(key, vs)
				if len(vs) > 0 {
					write(key, len(vs))
				}
			case 3: // a keyed batch spread over every key
				ks, vs = ks[:0], vs[:0]
				for i := 0; i < int(arg)*2; i++ {
					k := keys[(i*int(arg))%len(keys)]
					ks = append(ks, k)
					vs = append(vs, float64(i^int(arg)))
					write(k, 1)
				}
				w.UpdatePairs(ks, vs)
			default: // reads
				if got, want := w.Count(key), count(key); got != want {
					t.Fatalf("Count(%s) = %d, model %d", key, got, want)
				}
				checkWindowReads(t, w, core.LessF64, key, []float64{float64(arg), -1}, bitsEqual)
			}
		}
		for _, key := range keys {
			if got, want := w.Count(key), count(key); got != want {
				t.Fatalf("final Count(%s) = %d, model %d", key, got, want)
			}
			checkWindowReads(t, w, core.LessF64, key, []float64{0}, bitsEqual)
		}
	})
}
