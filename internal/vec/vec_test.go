package vec

import (
	"math"
	"math/rand"
	"testing"
)

// Differential suite: every kernel must agree bit-for-bit with a plain
// scalar reference on randomized and adversarial inputs. For the count
// scans that checks the unrolled loops against the simple one — a real
// check, since the 4-accumulator unroll must be permutation-exact, not
// merely close.

// adversarialFloats are the float64 inputs that distinguish a correct
// transcription from a merely plausible one: NaN (every comparison false),
// signed zeros (compare equal), infinities, and denormals.
func adversarialFloats() [][]float64 {
	nan := math.NaN()
	inf := math.Inf(1)
	den := math.SmallestNonzeroFloat64
	return [][]float64{
		nil,
		{},
		{1},
		{nan},
		{nan, nan, nan, nan, nan},
		{1, nan, 2, nan, 3},
		{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0},
		{-inf, inf, -inf, inf, 0, nan},
		{den, -den, 0, den * 2, -den * 2},
		{5, 5, 5, 5, 5, 5, 5, 5, 5},
		{-1e300, 1e300, -1e-300, 1e-300, nan, -inf, inf},
	}
}

func adversarialUints() [][]uint64 {
	const mx = math.MaxUint64
	const top = uint64(1) << 63
	return [][]uint64{
		nil,
		{},
		{7},
		{0, mx, top, top - 1, top + 1},
		{mx, mx, mx, mx, mx},
		{0, 0, 0, 0},
		{1, top, 2, top | 2, 3, mx - 1},
	}
}

// floatProbes returns probe values worth testing against xs: every element
// plus the global edge cases.
func floatProbes(xs []float64) []float64 {
	ps := append([]float64(nil), xs...)
	return append(ps, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1.5)
}

func uintProbes(xs []uint64) []uint64 {
	ps := append([]uint64(nil), xs...)
	return append(ps, 0, 1, uint64(1)<<63, math.MaxUint64)
}

func refCountLEF64(xs []float64, y float64) int {
	c := 0
	for _, x := range xs {
		if !(y < x) {
			c++
		}
	}
	return c
}

func refCountLTF64(xs []float64, y float64) int {
	c := 0
	for _, x := range xs {
		if x < y {
			c++
		}
	}
	return c
}

func refCountLEU64(xs []uint64, y uint64) int {
	c := 0
	for _, x := range xs {
		if !(y < x) {
			c++
		}
	}
	return c
}

func refCountLTU64(xs []uint64, y uint64) int {
	c := 0
	for _, x := range xs {
		if x < y {
			c++
		}
	}
	return c
}

func refHasNaN(xs []float64) bool {
	for _, x := range xs {
		if x != x {
			return true
		}
	}
	return false
}

func TestCountDispatchAdversarialFloat64(t *testing.T) {
	for ci, xs := range adversarialFloats() {
		for _, y := range floatProbes(xs) {
			if got, want := CountLE(xs, y), refCountLEF64(xs, y); got != want {
				t.Fatalf("case %d: CountLE(%v, %v) = %d, want %d", ci, xs, y, got, want)
			}
			if got, want := CountLT(xs, y), refCountLTF64(xs, y); got != want {
				t.Fatalf("case %d: CountLT(%v, %v) = %d, want %d", ci, xs, y, got, want)
			}
		}
		if got, want := HasNaN(xs), refHasNaN(xs); got != want {
			t.Fatalf("case %d: HasNaN(%v) = %v, want %v", ci, xs, got, want)
		}
	}
}

func TestCountDispatchAdversarialUint64(t *testing.T) {
	for ci, xs := range adversarialUints() {
		for _, y := range uintProbes(xs) {
			if got, want := CountLE(xs, y), refCountLEU64(xs, y); got != want {
				t.Fatalf("case %d: CountLE(%v, %v) = %d, want %d", ci, xs, y, got, want)
			}
			if got, want := CountLT(xs, y), refCountLTU64(xs, y); got != want {
				t.Fatalf("case %d: CountLT(%v, %v) = %d, want %d", ci, xs, y, got, want)
			}
		}
	}
}

// randFloats draws values from a pool that includes the adversarial values
// with high probability, at every length class the unrolled scans split on
// (0..3 scalar tail, 4-element blocks).
func randFloats(r *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 1, -1}
	xs := make([]float64, n)
	for i := range xs {
		if r.Intn(4) == 0 {
			xs[i] = special[r.Intn(len(special))]
		} else {
			xs[i] = r.NormFloat64() * 1e3
		}
	}
	return xs
}

func TestCountDispatchRandomizedFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for iter := 0; iter < 500; iter++ {
		xs := randFloats(r, r.Intn(67))
		y := xs0(xs, r)
		if got, want := CountLE(xs, y), refCountLEF64(xs, y); got != want {
			t.Fatalf("CountLE(len %d, %v) = %d, want %d", len(xs), y, got, want)
		}
		if got, want := CountLT(xs, y), refCountLTF64(xs, y); got != want {
			t.Fatalf("CountLT(len %d, %v) = %d, want %d", len(xs), y, got, want)
		}
		if got, want := HasNaN(xs), refHasNaN(xs); got != want {
			t.Fatalf("HasNaN(len %d) = %v, want %v", len(xs), got, want)
		}
	}
}

func xs0(xs []float64, r *rand.Rand) float64 {
	if len(xs) > 0 && r.Intn(2) == 0 {
		return xs[r.Intn(len(xs))]
	}
	if r.Intn(8) == 0 {
		return math.NaN()
	}
	return r.NormFloat64() * 1e3
}

func TestCountDispatchRandomizedUint64(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 500; iter++ {
		n := r.Intn(67)
		xs := make([]uint64, n)
		for i := range xs {
			switch r.Intn(4) {
			case 0:
				xs[i] = math.MaxUint64 - uint64(r.Intn(3))
			case 1:
				xs[i] = (uint64(1) << 63) + uint64(r.Intn(3)) - 1
			default:
				xs[i] = r.Uint64()
			}
		}
		var y uint64
		if n > 0 && r.Intn(2) == 0 {
			y = xs[r.Intn(n)]
		} else {
			y = r.Uint64()
		}
		if got, want := CountLE(xs, y), refCountLEU64(xs, y); got != want {
			t.Fatalf("CountLE(len %d, %d) = %d, want %d", n, y, got, want)
		}
		if got, want := CountLT(xs, y), refCountLTU64(xs, y); got != want {
			t.Fatalf("CountLT(len %d, %d) = %d, want %d", n, y, got, want)
		}
	}
}

// bitsOf reduces a float64 slice to raw bits for bit-exact comparison
// (NaN != NaN under ==, but its payload bits compare fine).
func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestSortMatchesGenericStructure proves SortAsc/SortDesc produce the exact
// permutation of core's generic introsort — including on NaN-polluted input,
// where "a correct sort" is not unique and only structural identity keeps
// the vec and generic kernel tables bit-identical. The reference here is a local
// transcription of the same algorithm with explicit closures.
func TestSortMatchesGenericStructure(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for iter := 0; iter < 300; iter++ {
		xs := randFloats(r, r.Intn(200))
		mine := append([]float64(nil), xs...)
		ref := append([]float64(nil), xs...)
		SortAsc(mine)
		refSortSlice(ref, func(a, b float64) bool { return a < b })
		if !sameBits(bitsOf(mine), bitsOf(ref)) {
			t.Fatalf("SortAsc diverged from generic introsort on %v:\n got %v\nwant %v", xs, mine, ref)
		}
		mine = append(mine[:0], xs...)
		ref = append(ref[:0], xs...)
		SortDesc(mine)
		refSortSlice(ref, func(a, b float64) bool { return b < a })
		if !sameBits(bitsOf(mine), bitsOf(ref)) {
			t.Fatalf("SortDesc diverged from generic introsort on %v:\n got %v\nwant %v", xs, mine, ref)
		}
	}
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refSortSlice is a verbatim copy of internal/core's sortSlice (the generic
// introsort) so the structural-identity claim is checked against the real
// algorithm, not a stand-in.
func refSortSlice[T any](xs []T, less func(a, b T) bool) {
	refQuicksort(xs, refMaxDepth(len(xs)), less)
}

func refMaxDepth(n int) int {
	d := 0
	for i := n; i > 0; i >>= 1 {
		d++
	}
	return 2 * d
}

func refQuicksort[T any](xs []T, depth int, less func(a, b T) bool) {
	for len(xs) > insertionThreshold {
		if depth == 0 {
			refHeapsort(xs, less)
			return
		}
		depth--
		p := refPartition(xs, less)
		if p < len(xs)-p-1 {
			refQuicksort(xs[:p], depth, less)
			xs = xs[p+1:]
		} else {
			refQuicksort(xs[p+1:], depth, less)
			xs = xs[:p]
		}
	}
	refInsertionSort(xs, less)
}

func refPartition[T any](xs []T, less func(a, b T) bool) int {
	n := len(xs)
	mid := n / 2
	if less(xs[mid], xs[0]) {
		xs[mid], xs[0] = xs[0], xs[mid]
	}
	if less(xs[n-1], xs[0]) {
		xs[n-1], xs[0] = xs[0], xs[n-1]
	}
	if less(xs[n-1], xs[mid]) {
		xs[n-1], xs[mid] = xs[mid], xs[n-1]
	}
	xs[mid], xs[n-2] = xs[n-2], xs[mid]
	pivot := xs[n-2]
	i, j := 0, n-2
	for {
		i++
		for less(xs[i], pivot) {
			i++
		}
		j--
		for less(pivot, xs[j]) {
			j--
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
	xs[i], xs[n-2] = xs[n-2], xs[i]
	return i
}

func refInsertionSort[T any](xs []T, less func(a, b T) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func refHeapsort[T any](xs []T, less func(a, b T) bool) {
	n := len(xs)
	sift := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && less(xs[child], xs[child+1]) {
				child++
			}
			if !less(xs[root], xs[child]) {
				return
			}
			xs[root], xs[child] = xs[child], xs[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i, n)
	}
	for i := n - 1; i > 0; i-- {
		xs[0], xs[i] = xs[i], xs[0]
		sift(0, i)
	}
}

func TestMergeIntoMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		a := randFloats(r, r.Intn(60))
		b := randFloats(r, r.Intn(30))
		SortAsc(a)
		SortAsc(b)
		dst := make([]float64, len(a), len(a)+len(b))
		copy(dst, a)
		got := MergeIntoAsc(dst, b)
		want := refMergeSortedInto(append([]float64(nil), a...), b, func(x, y float64) bool { return x < y })
		if !sameBits(bitsOf(got), bitsOf(want)) {
			t.Fatalf("MergeIntoAsc diverged:\n a=%v\n b=%v\n got %v\nwant %v", a, b, got, want)
		}

		SortDesc(a)
		SortDesc(b)
		dst = make([]float64, len(a), len(a)+len(b))
		copy(dst, a)
		got = MergeIntoDesc(dst, b)
		want = refMergeSortedInto(append([]float64(nil), a...), b, func(x, y float64) bool { return y < x })
		if !sameBits(bitsOf(got), bitsOf(want)) {
			t.Fatalf("MergeIntoDesc diverged:\n a=%v\n b=%v\n got %v\nwant %v", a, b, got, want)
		}
	}
}

// refMergeSortedInto is a verbatim copy of internal/core's mergeSortedInto.
func refMergeSortedInto[T any](dst []T, add []T, less func(a, b T) bool) []T {
	m, e := len(dst), len(add)
	if e == 0 {
		return dst
	}
	dst = append(dst, add...)
	if m == 0 || !less(add[0], dst[m-1]) {
		return dst
	}
	i, j, k := m-1, e-1, m+e-1
	for j >= 0 && i >= 0 {
		if less(add[j], dst[i]) {
			lo, hi := 0, i
			for step := 1; hi-step >= 0; step <<= 1 {
				if !less(add[j], dst[hi-step]) {
					lo = hi - step + 1
					break
				}
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if less(add[j], dst[mid]) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			cnt := i - lo + 1
			copy(dst[k-cnt+1:k+1], dst[lo:i+1])
			k -= cnt
			i = lo - 1
		} else {
			dst[k] = add[j]
			j--
			k--
		}
	}
	if j >= 0 {
		copy(dst[:j+1], add[:j+1])
	}
	return dst
}

func TestSearchKernels(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		xs := randFloats(r, r.Intn(80))
		// Search contracts assume sorted input; use a clean sorted slice
		// (NaN-polluted "sorted" arrays are covered by the structural sort
		// identity above plus core's differential suite).
		clean := xs[:0]
		for _, x := range xs {
			if x == x {
				clean = append(clean, x)
			}
		}
		SortAsc(clean)
		for _, y := range floatProbes(clean) {
			le := SearchLE(clean, y)
			lt := SearchLT(clean, y)
			// Reference by linear scan.
			wantLE, wantLT := 0, 0
			for _, x := range clean {
				if !(y < x) {
					wantLE++
				}
				if x < y {
					wantLT++
				}
			}
			if y == y { // binary-search contracts only hold for ordered probes
				if le != wantLE {
					t.Fatalf("SearchLE(%v, %v) = %d, want %d", clean, y, le, wantLE)
				}
				if lt != wantLT {
					t.Fatalf("SearchLT(%v, %v) = %d, want %d", clean, y, lt, wantLT)
				}
			}
			if g := GallopLE(clean, 0, y); y == y && g != wantLE {
				t.Fatalf("GallopLE(%v, 0, %v) = %d, want %d", clean, y, g, wantLE)
			}
		}
		// Descending-count kernels against a descending copy.
		desc := append([]float64(nil), clean...)
		SortDesc(desc)
		for _, y := range floatProbes(clean) {
			if y != y {
				continue
			}
			wantLE, wantLT := 0, 0
			for _, x := range desc {
				if !(y < x) {
					wantLE++
				}
				if x < y {
					wantLT++
				}
			}
			if got := CountLEDesc(desc, y); got != wantLE {
				t.Fatalf("CountLEDesc(%v, %v) = %d, want %d", desc, y, got, wantLE)
			}
			if got := CountLTDesc(desc, y); got != wantLT {
				t.Fatalf("CountLTDesc(%v, %v) = %d, want %d", desc, y, got, wantLT)
			}
		}
	}
}

func TestScanHelpers(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		xs := randFloats(r, r.Intn(50))
		// MinMax must match the sequential first-seen semantics exactly.
		if len(xs) > 0 {
			mn, mx := xs[0], xs[0]
			for _, x := range xs {
				if x < mn {
					mn = x
				} else if mx < x {
					mx = x
				}
			}
			gmn, gmx := MinMax(xs, xs[0], xs[0])
			if math.Float64bits(gmn) != math.Float64bits(mn) || math.Float64bits(gmx) != math.Float64bits(mx) {
				t.Fatalf("MinMax(%v) = (%v, %v), want (%v, %v)", xs, gmn, gmx, mn, mx)
			}
		}
		// ExtendRun must match the generic prefix-extension loop.
		sorted := 0
		if len(xs) > 0 {
			sorted = r.Intn(len(xs) + 1)
		}
		want := sorted
		for want < len(xs) && (want == 0 || !(xs[want] < xs[want-1])) {
			want++
		}
		if got := ExtendRunAsc(xs, sorted); got != want {
			t.Fatalf("ExtendRunAsc(%v, %d) = %d, want %d", xs, sorted, got, want)
		}
		want = sorted
		for want < len(xs) && (want == 0 || !(xs[want-1] < xs[want])) {
			want++
		}
		if got := ExtendRunDesc(xs, sorted); got != want {
			t.Fatalf("ExtendRunDesc(%v, %d) = %d, want %d", xs, sorted, got, want)
		}
		// IsSorted duals of the generic helpers.
		wantAsc := true
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] {
				wantAsc = false
				break
			}
		}
		if got := IsSortedAsc(xs); got != wantAsc {
			t.Fatalf("IsSortedAsc(%v) = %v, want %v", xs, got, wantAsc)
		}
		wantDesc := true
		for i := 1; i < len(xs); i++ {
			if xs[i-1] < xs[i] {
				wantDesc = false
				break
			}
		}
		if got := IsSortedDesc(xs); got != wantDesc {
			t.Fatalf("IsSortedDesc(%v) = %v, want %v", xs, got, wantDesc)
		}
	}
}

func TestGallopCumGE(t *testing.T) {
	cum := []uint64{2, 5, 5, 9, 14, 20}
	for from := 0; from <= len(cum); from++ {
		for target := uint64(0); target <= 22; target++ {
			want := from
			for want < len(cum) && cum[want] < target {
				want++
			}
			// The generic contract starts from a position where every earlier
			// entry is known < target; replicate by skipping invalid starts.
			if from > 0 && cum[from-1] >= target {
				continue
			}
			if got := GallopCumGE(cum, from, target); got != want {
				t.Fatalf("GallopCumGE(%v, %d, %d) = %d, want %d", cum, from, target, got, want)
			}
		}
	}
}

func TestKWayMergeMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for iter := 0; iter < 100; iter++ {
		nLev := 1 + r.Intn(6)
		var curs []KWayCursor[float64]
		total := 0
		for h := 0; h < nLev; h++ {
			n := r.Intn(20)
			if n == 0 {
				continue
			}
			buf := randFloats(r, n)
			// Clean NaN out: the k-way contract requires sorted buffers.
			clean := buf[:0]
			for _, x := range buf {
				if x == x {
					clean = append(clean, x)
				}
			}
			if len(clean) == 0 {
				continue
			}
			hra := iter%2 == 1
			if hra {
				SortDesc(clean)
				curs = append(curs, KWayCursor[float64]{Buf: clean, Pos: len(clean) - 1, End: -1, Step: -1, W: uint64(1) << uint(h)})
			} else {
				SortAsc(clean)
				curs = append(curs, KWayCursor[float64]{Buf: clean, Pos: 0, End: len(clean), Step: 1, W: uint64(1) << uint(h)})
			}
			total += len(clean)
		}
		// Reference: flatten and stable-merge by repeated min selection over
		// cursor heads (same tie-break as the heap: the heap's behaviour is
		// deterministic, so just duplicate the cursors and replay).
		ref := make([]KWayCursor[float64], len(curs))
		for i := range curs {
			ref[i] = curs[i]
		}
		items := make([]float64, total)
		cum := make([]uint64, total)
		KWayMerge(curs, items, cum)
		items2 := make([]float64, total)
		cum2 := make([]uint64, total)
		refKWay(ref, items2, cum2)
		if !sameBits(bitsOf(items), bitsOf(items2)) {
			t.Fatalf("KWayMerge items diverged:\n got %v\nwant %v", items, items2)
		}
		for i := range cum {
			if cum[i] != cum2[i] {
				t.Fatalf("KWayMerge cum diverged at %d: %d vs %d", i, cum[i], cum2[i])
			}
		}
	}
}

// refKWay replays core's generic k-way heap (orderKernels.kway) with explicit closures.
func refKWay(curs []KWayCursor[float64], items []float64, cum []uint64) {
	if len(curs) == 0 {
		return
	}
	var run uint64
	if len(curs) == 1 {
		c := &curs[0]
		for i := range items {
			run += c.W
			items[i] = c.Buf[c.Pos]
			cum[i] = run
			c.Pos += c.Step
		}
		return
	}
	less := func(a, b *KWayCursor[float64]) bool { return a.Buf[a.Pos] < b.Buf[b.Pos] }
	n := len(curs)
	sift := func(root int) {
		for {
			child := 2*root + 1
			if child >= n {
				return
			}
			if child+1 < n && less(&curs[child+1], &curs[child]) {
				child++
			}
			if !less(&curs[child], &curs[root]) {
				return
			}
			curs[root], curs[child] = curs[child], curs[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for out := 0; n > 0; out++ {
		c := &curs[0]
		run += c.W
		items[out] = c.Buf[c.Pos]
		cum[out] = run
		c.Pos += c.Step
		if c.Pos == c.End {
			n--
			curs[0] = curs[n]
		}
		sift(0)
	}
}
