package vec

// Backward galloping merges, structure-identical to internal/core's
// generic versions (see runmerge.go there) specialised to `<` / its
// reversal.

// MergeIntoAsc merges the ascending-sorted block add into the
// ascending-sorted slice dst and returns the extended slice. The merge runs
// backward in place over dst's spare capacity; add must not alias dst's
// backing array, and the caller must have ensured capacity for
// len(dst)+len(add) (core grows a level buffer before merging into it, so
// the append never reallocates).
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
