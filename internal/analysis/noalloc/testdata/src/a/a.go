// Package a seeds positive and negative cases for the noalloc analyzer.
package a

import "math"

type point struct{ x, y float64 }

//req:noalloc
func okArith(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Sqrt(x)
	}
	return s
}

//req:noalloc
func helper(x float64) float64 { return x * 2 }

//req:noalloc
func okCallsAnnotated(x float64) float64 { return helper(x) }

//req:noalloc
func okStructValue() point { return point{1, 2} }

//req:noalloc
func okLocalClosure(xs []float64) float64 {
	pick := func(i int) float64 { return xs[i] }
	return pick(0)
}

//req:noalloc
func okCopy(dst, src []float64) int { return copy(dst, src) }

// unannotated functions may allocate freely.
func plain() []int { return make([]int, 4) }

//req:noalloc
func badMake() []int {
	return make([]int, 4) // want "make allocates"
}

//req:noalloc
func badNew() *point {
	return new(point) // want "new allocates"
}

//req:noalloc
func badAppend(xs []int) []int {
	return append(xs, 1) // want "append may grow"
}

//req:noalloc
func okWaivedAppend(xs []int) []int {
	return append(xs, 1) //req:allocok — caller pre-ensures capacity
}

//req:noalloc
func badSliceLit() []int {
	return []int{1, 2} // want "slice literal allocates"
}

//req:noalloc
func badMapLit() map[int]int {
	return map[int]int{} // want "map literal allocates"
}

//req:noalloc
func badAddrLit() *point {
	return &point{1, 2} // want "address of composite literal"
}

//req:noalloc
func badBoxReturn(x int) interface{} {
	return x // want "boxes the value"
}

//req:noalloc
func badCallUnannotated() {
	plain() // want "not //req:noalloc"
}

//req:noalloc
func badEscapingClosure(f func(func())) {
	f(func() {}) // want "function literal escapes"
}

//req:noalloc
func badStringConv(b []byte) string {
	return string(b) // want "string conversion"
}

//req:noalloc
func badGoroutine() {
	go helper(1) // want "starts a goroutine"
}

//req:noalloc
func badDefer() {
	defer helper(1) // want "defer may allocate"
}

// sink's annotated method binds every implementation in the package.
type sink interface {
	//req:noalloc
	put(x float64) float64
	grow(n int) []float64
}

type goodSink struct{}

func (goodSink) put(x float64) float64 { return x }

// grow is not annotated in sink, so implementations may allocate.
func (goodSink) grow(n int) []float64 { return make([]float64, n) }

type badSink struct{}

func (badSink) put(x float64) float64 {
	_ = make([]int, 1) // want "make allocates"
	return x
}

func (badSink) grow(n int) []float64 { return nil }

//req:noalloc
func okCallsAnnotatedMethod(s sink) float64 { return s.put(1) }

//req:noalloc
func badCallsUnannotatedMethod(s sink) []float64 {
	return s.grow(1) // want "not //req:noalloc"
}
