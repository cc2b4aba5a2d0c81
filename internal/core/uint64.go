package core

import "req/internal/vec"

// u64Kernels is the uint64 kernel table; see f64Kernels. kernelFor selects
// it for the canonical LessU64.
type u64Kernels struct{}

func (u64Kernels) less(a, b uint64) bool                        { return a < b }
func (u64Kernels) admits(uint64) bool                           { return true }
func (u64Kernels) admitsAll([]uint64) bool                      { return true }
func (u64Kernels) sortAsc(xs []uint64)                          { vec.SortAsc(xs) }
func (u64Kernels) sortDesc(xs []uint64)                         { vec.SortDesc(xs) }
func (u64Kernels) mergeAsc(dst, add []uint64) []uint64          { return vec.MergeIntoAsc(dst, add) }
func (u64Kernels) mergeDesc(dst, add []uint64) []uint64         { return vec.MergeIntoDesc(dst, add) }
func (u64Kernels) searchLE(xs []uint64, y uint64) int           { return vec.SearchLE(xs, y) }
func (u64Kernels) searchLT(xs []uint64, y uint64) int           { return vec.SearchLT(xs, y) }
func (u64Kernels) countLEDesc(xs []uint64, y uint64) int        { return vec.CountLEDesc(xs, y) }
func (u64Kernels) countLTDesc(xs []uint64, y uint64) int        { return vec.CountLTDesc(xs, y) }
func (u64Kernels) countLE(xs []uint64, y uint64) int            { return vec.CountLE(xs, y) }
func (u64Kernels) countLT(xs []uint64, y uint64) int            { return vec.CountLT(xs, y) }
func (u64Kernels) gallopLE(xs []uint64, from int, y uint64) int { return vec.GallopLE(xs, from, y) }
func (u64Kernels) isSortedAsc(xs []uint64) bool                 { return vec.IsSortedAsc(xs) }
func (u64Kernels) isSortedDesc(xs []uint64) bool                { return vec.IsSortedDesc(xs) }
func (u64Kernels) minMax(xs []uint64, mn, mx uint64) (uint64, uint64) {
	return vec.MinMax(xs, mn, mx)
}
func (u64Kernels) extendAsc(xs []uint64, sorted int) int  { return vec.ExtendRunAsc(xs, sorted) }
func (u64Kernels) extendDesc(xs []uint64, sorted int) int { return vec.ExtendRunDesc(xs, sorted) }
func (u64Kernels) kway(curs []vec.KWayCursor[uint64], items []uint64, cum []uint64) {
	vec.KWayMerge(curs, items, cum)
}
