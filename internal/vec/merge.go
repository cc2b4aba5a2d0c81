package vec

// Backward galloping merges and the view-repair cumulative-weight rewrite,
// structure-identical to internal/core's generic versions (see runmerge.go
// and orderKernels.mergeTailCum there) specialised to `<` / its reversal.

// MergeIntoAsc merges the ascending-sorted block add into the
// ascending-sorted slice dst and returns the extended slice. The merge runs
// backward in place over dst's spare capacity; add must not alias dst's
// backing array, and the caller must have ensured capacity for
// len(dst)+len(add) (dst is a capped slab window in core, so the append can
// never reallocate out of the slab).
//
//req:noalloc
func MergeIntoAsc[E Elem](dst []E, add []E) []E {
	m, e := len(dst), len(add)
	if e == 0 {
		return dst
	}
	dst = append(dst, add...) //req:allocok — capacity ensured by the caller
	if m == 0 || !(add[0] < dst[m-1]) {
		// add belongs entirely after dst (the common case for near-sorted
		// ingest); append already placed it.
		return dst
	}
	i, j, k := m-1, e-1, m+e-1
	for j >= 0 && i >= 0 {
		if add[j] < dst[i] {
			// Gallop backward for p, the first index in dst[:i+1] with
			// dst[p] > add[j], then move dst[p:i+1] down in one copy.
			lo, hi := 0, i
			for step := 1; hi-step >= 0; step <<= 1 {
				if !(add[j] < dst[hi-step]) {
					lo = hi - step + 1
					break
				}
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if add[j] < dst[mid] {
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

// MergeIntoDesc is MergeIntoAsc under the reversed order (every less(u, v)
// becomes v < u): both slices sorted descending, merged descending.
//
//req:noalloc
func MergeIntoDesc[E Elem](dst []E, add []E) []E {
	m, e := len(dst), len(add)
	if e == 0 {
		return dst
	}
	dst = append(dst, add...) //req:allocok — capacity ensured by the caller
	if m == 0 || !(dst[m-1] < add[0]) {
		return dst
	}
	i, j, k := m-1, e-1, m+e-1
	for j >= 0 && i >= 0 {
		if dst[i] < add[j] {
			lo, hi := 0, i
			for step := 1; hi-step >= 0; step <<= 1 {
				if !(dst[hi-step] < add[j]) {
					lo = hi - step + 1
					break
				}
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if dst[mid] < add[j] {
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

// MergeTailCum merges the ascending-sorted tail (weight-1 items) into the
// ascending view arrays backward in place — the view-repair rewrite. items
// and cum must already have length old+len(tail); entries [0, old) hold the
// previous view, and the caller guarantees tail does not alias items.
//
// The backward merge stages raw per-item weights into the moved suffix of
// cum (k stays strictly above i, so reading cum[i]/cum[i-1] before writing
// cum[k] is safe), then one CumSumU64 sweep rewrites that suffix to
// cumulative form. uint64 addition is exact mod 2^64, so the result is
// bit-identical to the old fused accumulator on every input.
//
//req:noalloc
func MergeTailCum[E Elem](items []E, cum []uint64, tail []E, old int) {
	m := len(tail)
	end := old + m
	i, j, k := old-1, m-1, end-1
	for i >= 0 && j >= 0 {
		if items[i] < tail[j] {
			items[k] = tail[j]
			cum[k] = 1
			j--
		} else {
			w := cum[i]
			if i > 0 {
				w -= cum[i-1]
			}
			items[k] = items[i]
			cum[k] = w
			i--
		}
		k--
	}
	for j >= 0 {
		items[k] = tail[j]
		cum[k] = 1
		j--
		k--
	}
	// items[0..k] and their cumulative weights are untouched: every new item
	// merged in above them, so their prefix sums are unchanged. [k+1, end)
	// holds raw weights; one vectorized pass makes them cumulative.
	var base uint64
	if k >= 0 {
		base = cum[k]
	}
	cumSumU64(cum[k+1:end], base)
}
