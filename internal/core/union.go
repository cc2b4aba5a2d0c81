package core

// Union answers quantile queries over the weighted union of one or more
// sketches' coresets — every retained item of every added sketch at its
// level weight 2^h — without merging the sketches or building a view. It is
// the engine of every live quantile read, held by a Work: a single
// sketch's (a registry key's too) and a windowed key's over its live ring
// slots. Its answers are those of a sorted view over that union
// (among items equal under the order, it may return a different one): φ
// resolves to the smallest retained item y whose summed weight
// Σ 2^h·#{x ≤ y} reaches ⌈φn⌉ (Algorithm 2's Estimate-Rank), found by
// selection over the sorted level buffers instead of a k-way merge, and no
// compaction runs. The union's rank error is the sum of the sketches' own
// independent compaction errors — a merge of the same sketches carries that
// error plus its own compactions' — so it keeps the single-sketch guarantee
// (Theorem 3 without the merge), and a read consumes no coins.
//
// Every added sketch must share one order and one accuracy mode; the ring
// slots of a windowed registry do. The union aliases their level buffers, so
// it is valid only until one of them is written; Reset drops the aliases.
// The runs are grow-only and each sketch settles through its own Work, so
// steady-state reads allocate nothing.
type Union[T any] struct {
	// s is the first sketch added: its order, accuracy mode and kernel
	// table answer every comparison.
	s    *Sketch[T]
	hra  bool
	runs []unionRun[T]
	n    uint64
	// min and max are the exact extremes over the added sketches.
	min, max T
	// below is the total weight of the items every run's window has
	// dropped from below: items already known to lie under the answer.
	below uint64
}

// unionRun is one settled level buffer of an added sketch. Its active
// window [lo, hi) counts positions ascending in the caller's order, so the
// HRA buffers (stored descending) read it mirrored; see active.
type unionRun[T any] struct {
	buf    []T
	w      uint64 // the level's item weight 2^h
	lo, hi int
	le     int // items ≤ the current pivot inside the window
}

// Reset empties the union and drops its aliases of the added sketches'
// storage, keeping the run scratch.
//
//req:noalloc
func (u *Union[T]) Reset() {
	clear(u.runs)
	u.runs = u.runs[:0]
	var zero T
	u.s, u.n, u.min, u.max = nil, 0, zero, zero
}

// Add settles every level of s through s's Work (see settleLevels) and
// adds each non-empty one as a sorted run of weight 2^h. An empty sketch
// adds nothing.
func (u *Union[T]) Add(s *Sketch[T]) {
	if s.n == 0 {
		return
	}
	s.settleLevels()
	switch {
	case u.s == nil:
		u.s, u.hra, u.min, u.max = s, s.cfg.HRA, s.min, s.max
	case s.cfg.HRA != u.hra:
		panic("core: union of sketches in different accuracy modes")
	default:
		if s.kern.less(s.min, u.min) {
			u.min = s.min
		}
		if s.kern.less(u.max, s.max) {
			u.max = s.max
		}
	}
	u.n += s.n
	for h := range s.levels {
		if buf := s.levels[h].buf; len(buf) > 0 {
			u.runs = append(u.runs, unionRun[T]{buf: buf, w: uint64(1) << uint(h)})
		}
	}
}

// settleLevels settles every level in place through s's Work, leaving each
// buffer one sorted run. The multiset is unchanged, so a current view
// stays current; a settled sketch is left as it is, so a record kept from
// one (a registry export settles before it encodes) stays current too.
func (s *Sketch[T]) settleLevels() {
	for h := range s.levels {
		s.settleLevel(h)
	}
}

// Quantile returns the estimated φ-quantile of the union; see
// Sketch.Quantile. It returns ErrEmpty when the union is empty and
// ErrBadRank for φ outside [0, 1].
//
//req:noalloc
func (u *Union[T]) Quantile(phi float64) (T, error) {
	var zero T
	if u.n == 0 {
		return zero, ErrEmpty
	}
	if badPhi(phi) {
		return zero, ErrBadRank
	}
	u.open(false)
	return u.quantile(phi), nil
}

// QuantilesInto answers every φ in phis, writing the estimates into dst
// (grown as needed) in input order; see Sketch.QuantilesInto. A φ no
// smaller than its predecessor keeps the windows' lower bounds (everything
// under the previous answer is under this one too), so an ascending
// dashboard set narrows as it goes; any order is answered without sorting.
func (u *Union[T]) QuantilesInto(dst []T, phis []float64) ([]T, error) {
	if len(phis) == 0 {
		return resizeSlice(dst, 0), nil
	}
	if u.n == 0 {
		return nil, ErrEmpty
	}
	for _, phi := range phis {
		if badPhi(phi) {
			return nil, ErrBadRank
		}
	}
	dst = resizeSlice(dst, len(phis))
	for i, phi := range phis {
		u.open(i > 0 && phi >= phis[i-1])
		dst[i] = u.quantile(phi)
	}
	return dst, nil
}

// open widens every run's window to the whole run for the next selection.
// keepLow keeps the lower bounds (and the weight below them) from the
// previous selection, which is sound when the new target is no smaller.
//
//req:noalloc
func (u *Union[T]) open(keepLow bool) {
	if !keepLow {
		u.below = 0
	}
	for i := range u.runs {
		r := &u.runs[i]
		if !keepLow {
			r.lo = 0
		}
		r.hi = len(r.buf)
	}
}

// active returns run r's window as a slice of its buffer.
//
//req:noalloc
func (u *Union[T]) active(r *unionRun[T]) []T {
	if u.hra {
		n := len(r.buf)
		return r.buf[n-r.hi : n-r.lo]
	}
	return r.buf[r.lo:r.hi]
}

// at returns run r's i-th item ascending in the caller's order.
//
//req:noalloc
func (u *Union[T]) at(r *unionRun[T], i int) T {
	if u.hra {
		return r.buf[len(r.buf)-1-i]
	}
	return r.buf[i]
}

// quantile selects the answer for one validated φ. Each round takes a
// pivot p from the widest window and counts, by binary search inside every
// window, the weight of the items ≤ p. If that weight reaches the target,
// the answer is p or an item below it: every window drops its items ≥ p and
// p becomes the candidate. Otherwise the answer lies above p and every
// window drops its items ≤ p. The last candidate is the answer once every
// window is empty.
//
// The pivot sits at the target's share of the active weight within the
// widest window, so on runs of similar spread it lands near the answer;
// keeping it inside the window's middle three quarters makes every round
// drop at least an eighth of that window whatever the runs look like.
//
//req:noalloc
func (u *Union[T]) quantile(phi float64) T {
	if phi == 0 {
		return u.min
	}
	if phi == 1 {
		return u.max
	}
	target := quantileTarget(phi, u.n)
	// Retained weight equals n in every sketch, so some item reaches the
	// target; the maximum mirrors a view's clamp for one that falls short.
	ans := u.max
	for {
		widest := &u.runs[0]
		var active uint64
		for i := range u.runs {
			r := &u.runs[i]
			active += r.w * uint64(r.hi-r.lo)
			if r.hi-r.lo > widest.hi-widest.lo {
				widest = r
			}
		}
		m := widest.hi - widest.lo
		if m == 0 {
			return ans
		}
		k := int(float64(target-u.below) / float64(active) * float64(m))
		p := u.at(widest, widest.lo+max(m/8, min(m-1-m/8, k)))
		weight := u.below
		for i := range u.runs {
			r := &u.runs[i]
			r.le = 0
			if r.lo < r.hi {
				xs := u.active(r)
				r.le = u.s.levelCountLE(xs, len(xs), p)
				weight += r.w * uint64(r.le)
			}
		}
		if weight >= target {
			ans = p
			for i := range u.runs {
				r := &u.runs[i]
				r.hi = r.lo + r.le
				// Only a window whose last item ≤ p equals p holds more to drop.
				if r.le > 0 && !u.s.kern.less(u.at(r, r.hi-1), p) {
					xs := u.active(r)
					r.hi = r.lo + u.s.levelCountLT(xs, len(xs), p)
				}
			}
			continue
		}
		for i := range u.runs {
			r := &u.runs[i]
			r.lo += r.le
			u.below += r.w * uint64(r.le)
		}
	}
}
