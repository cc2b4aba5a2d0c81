package core

import (
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// CheckInvariants verifies the structural invariants of the sketch and
// returns a descriptive error on the first violation. It is exercised by
// the test suite after every mutating operation and is cheap enough to run
// in production assertions.
//
// Invariants checked:
//
//  1. geometry consistency: b = 2·k·nsec, k even and ≥ 4, nsec ≥ 2;
//  2. weight conservation: Σ_h 2^h·|buf_h| = n (even-sized compactions
//     conserve total weight exactly);
//  3. buffers at rest hold fewer than B items;
//  4. every stored item lies within [min, max] in the caller's order;
//  5. min/max presence tracks emptiness;
//  6. the bound dominates the count: N ≥ n;
//  7. level count obeys Observation 13 (≤ ⌈log₂(n/(B/2))⌉ + 2, the slack
//     covering geometry changes across growths);
//  8. the sorted-compactor invariant: 0 ≤ sorted ≤ len(buf) and
//     buf[:sorted] is sorted under the internal order at every level;
//  9. read scratch: the Work's union holds no alias of the levels between
//     reads;
//  10. storage: the O(1) ItemsRetained counter equals the per-level sum,
//     and no two level buffers, nor a level buffer and the Work's scratch
//     or merge staging buffer, share memory.
func (s *Sketch[T]) CheckInvariants() error {
	g := s.geom
	if g.b != 2*g.k*g.nsec {
		return fmt.Errorf("core: geometry inconsistent: b=%d k=%d nsec=%d", g.b, g.k, g.nsec)
	}
	if g.k < 4 || g.k%2 != 0 {
		return fmt.Errorf("core: invalid section size k=%d", g.k)
	}
	if g.nsec < 2 {
		return fmt.Errorf("core: invalid section count nsec=%d", g.nsec)
	}
	var weight uint64
	for h := range s.levels {
		blen := len(s.levels[h].buf)
		weight += uint64(blen) << uint(h)
		if blen >= g.b {
			return fmt.Errorf("core: level %d holds %d items ≥ capacity %d at rest", h, blen, g.b)
		}
		if sp := s.levels[h].sorted; sp < 0 || sp > blen {
			return fmt.Errorf("core: level %d sorted prefix %d outside buffer of %d", h, sp, blen)
		} else if !isSorted(s.levels[h].buf[:sp], s.internalLess) {
			return fmt.Errorf("core: level %d sorted prefix of %d is not sorted", h, sp)
		}
		for i, x := range s.levels[h].buf {
			if s.kern.less(x, s.min) {
				return fmt.Errorf("core: level %d item %d below tracked min", h, i)
			}
			if s.kern.less(s.max, x) {
				return fmt.Errorf("core: level %d item %d above tracked max", h, i)
			}
		}
	}
	if weight != s.n {
		return fmt.Errorf("core: retained weight %d != n %d", weight, s.n)
	}
	if s.hasMinMax != (s.n > 0) {
		return fmt.Errorf("core: hasMinMax=%v with n=%d", s.hasMinMax, s.n)
	}
	if s.bound < s.n {
		return fmt.Errorf("core: bound %d < n %d", s.bound, s.n)
	}
	if w := s.work; w != nil && (w.union.s != nil || len(w.union.runs) != 0) {
		return fmt.Errorf("core: union scratch still aliases the levels after a read")
	}
	if err := s.checkStorage(); err != nil {
		return err
	}
	if s.n > 0 {
		// Observation 13: items at level h have weight 2^h, so a level can
		// exist only if 2^h ≤ 2n/B... allow generous slack for growth.
		maxLevels := int(math.Ceil(math.Log2(float64(s.n)/float64(g.b/2)+1))) + 2
		if len(s.levels) > maxLevels && len(s.levels) > 3 {
			return fmt.Errorf("core: %d levels exceeds Observation 13 bound %d (n=%d, B=%d)",
				len(s.levels), maxLevels, s.n, g.b)
		}
	}
	return nil
}

// checkStorage verifies invariant 10: the retained counter and that every
// level owns its buffer.
func (s *Sketch[T]) checkStorage() error {
	sum := 0
	for h := range s.levels {
		buf := s.levels[h].buf
		sum += len(buf)
		for j := h + 1; j < len(s.levels); j++ {
			if slicesShareMemory(buf, s.levels[j].buf) {
				return fmt.Errorf("core: levels %d and %d share a buffer", h, j)
			}
		}
		if w := s.work; w != nil {
			if slicesShareMemory(w.scratch, buf) {
				return fmt.Errorf("core: scratch buffer aliases level %d", h)
			}
			if slicesShareMemory(w.mergeBuf, buf) {
				return fmt.Errorf("core: merge staging buffer aliases level %d", h)
			}
		}
	}
	if sum != s.retained {
		return fmt.Errorf("core: ItemsRetained counter %d != per-level sum %d", s.retained, sum)
	}
	return nil
}

// slicesShareMemory reports whether the backing arrays of a and b overlap.
// Comparing addresses across allocations is unspecified in the abstract
// machine, so this is strictly a diagnostic (its false negatives/positives
// would require a moving collector); it is exactly what invariant 10 needs
// to catch a buffer leaked from one owner to another.
func slicesShareMemory[A any](a, b []A) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	var zero A
	size := unsafe.Sizeof(zero)
	aLo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	aHi := aLo + uintptr(cap(a))*size
	bLo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	bHi := bLo + uintptr(cap(b))*size
	return aLo < bHi && bLo < aHi
}

// LevelDebug describes one level for instrumentation dumps.
type LevelDebug struct {
	Level       int
	Weight      uint64
	Items       int
	State       uint64
	Compactions uint64
}

// Levels returns a per-level instrumentation snapshot.
func (s *Sketch[T]) Levels() []LevelDebug {
	out := make([]LevelDebug, len(s.levels))
	for h := range s.levels {
		out[h] = LevelDebug{
			Level:       h,
			Weight:      uint64(1) << uint(h),
			Items:       len(s.levels[h].buf),
			State:       uint64(s.levels[h].state),
			Compactions: s.levels[h].numCompactions,
		}
	}
	return out
}

// DebugString renders the sketch structure as text, reproducing the layout
// of the paper's Figures 1 and 2: one row per relative-compactor with its
// protected half and numbered sections.
func (s *Sketch[T]) DebugString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "REQ sketch: n=%d N=%d k=%d nsec=%d B=%d levels=%d retained=%d\n",
		s.n, s.bound, s.geom.k, s.geom.nsec, s.geom.b, len(s.levels), s.ItemsRetained())
	fmt.Fprintf(&b, "  layout per level: [ protected half: %d items | %d sections × k=%d ]\n",
		s.geom.b/2, s.geom.nsec, s.geom.k)
	for h := len(s.levels) - 1; h >= 0; h-- {
		lv := &s.levels[h]
		fill := ""
		if s.geom.b > 0 {
			cells := 32
			filled := len(lv.buf) * cells / s.geom.b
			fill = strings.Repeat("#", filled) + strings.Repeat(".", cells-filled)
		}
		fmt.Fprintf(&b, "  level %2d  weight 2^%-2d  |%s| %5d/%d items  state=%b compactions=%d\n",
			h, h, fill, len(lv.buf), s.geom.b, uint64(lv.state), lv.numCompactions)
	}
	return b.String()
}
