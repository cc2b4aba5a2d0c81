package core

import "req/internal/vec"

// f64Kernels is the float64 kernel table: internal/vec's generic kernels
// stenciled at float64 (the compiler emits separate machine code with `<`
// inlined for each Elem instantiation — effectively monomorphic). kernelFor
// selects it for the canonical LessF64. It is the one table that drops an
// item: NaN, which has no place in the total order <.
type f64Kernels struct{}

func (f64Kernels) less(a, b float64) bool                         { return a < b }
func (f64Kernels) admits(x float64) bool                          { return x == x } // not NaN
func (f64Kernels) admitsAll(xs []float64) bool                    { return !vec.HasNaN(xs) }
func (f64Kernels) sortAsc(xs []float64)                           { vec.SortAsc(xs) }
func (f64Kernels) sortDesc(xs []float64)                          { vec.SortDesc(xs) }
func (f64Kernels) mergeAsc(dst, add []float64) []float64          { return vec.MergeIntoAsc(dst, add) }
func (f64Kernels) mergeDesc(dst, add []float64) []float64         { return vec.MergeIntoDesc(dst, add) }
func (f64Kernels) searchLE(xs []float64, y float64) int           { return vec.SearchLE(xs, y) }
func (f64Kernels) searchLT(xs []float64, y float64) int           { return vec.SearchLT(xs, y) }
func (f64Kernels) countLEDesc(xs []float64, y float64) int        { return vec.CountLEDesc(xs, y) }
func (f64Kernels) countLTDesc(xs []float64, y float64) int        { return vec.CountLTDesc(xs, y) }
func (f64Kernels) countLE(xs []float64, y float64) int            { return vec.CountLE(xs, y) }
func (f64Kernels) countLT(xs []float64, y float64) int            { return vec.CountLT(xs, y) }
func (f64Kernels) gallopLE(xs []float64, from int, y float64) int { return vec.GallopLE(xs, from, y) }
func (f64Kernels) isSortedAsc(xs []float64) bool                  { return vec.IsSortedAsc(xs) }
func (f64Kernels) isSortedDesc(xs []float64) bool                 { return vec.IsSortedDesc(xs) }
func (f64Kernels) minMax(xs []float64, mn, mx float64) (float64, float64) {
	return vec.MinMax(xs, mn, mx)
}
func (f64Kernels) extendAsc(xs []float64, sorted int) int  { return vec.ExtendRunAsc(xs, sorted) }
func (f64Kernels) extendDesc(xs []float64, sorted int) int { return vec.ExtendRunDesc(xs, sorted) }
func (f64Kernels) kway(curs []vec.KWayCursor[float64], items []float64, cum []uint64) {
	vec.KWayMerge(curs, items, cum)
}
