// Package hotalloc seeds the heap escapes the compiler reports inside
// //generic:hotpath functions, which generic/hotalloc must flag, next to the
// constructs that look costly but that the compiler keeps on the stack,
// where it must stay silent. Every want line is a `go build
// -gcflags=-m=1` "escapes to heap" diagnostic.
package hotalloc

import (
	"fmt"
	"math"
	"sync/atomic"
)

// enc is a stand-in hot-path worker with reusable scratch.
type enc struct {
	scratch []float64
	count   atomic.Int64
	sink    any
}

// Encode is the canonical clean hot function: a guard that ends in panic
// (its message escapes, but the guard is cold), scratch reuse, stdlib math,
// and a helper call.
//
//generic:hotpath
func (e *enc) Encode(x []float64) float64 {
	if len(x) != len(e.scratch) {
		panic(fmt.Sprintf("hotalloc: got %d features, want %d", len(x), len(e.scratch)))
	}
	var s float64
	for i, v := range x {
		e.scratch[i] = v
		s += math.Abs(v)
	}
	e.count.Add(1)
	return s + tiny(s) + big(s)
}

func tiny(v float64) float64 { return v * 0.5 }

// big allocates nothing, so calling it costs nothing. An allocation inside
// a callee the compiler does not inline is reported at the callee, outside
// any hot region: the measured gate binds it.
func big(v float64) float64 {
	for i := 0; i < 8; i++ {
		v += float64(i)
		v *= 1.0001
		v -= 0.5
		v /= 1.0002
	}
	return v
}

//generic:hotpath
func allocates(e *enc, x []float64, s string) float64 {
	defer e.count.Add(1)                                                                                             // no finding: an open-coded defer does not allocate
	buf := make([]float64, len(x))                                                                                   // want generic/hotalloc
	extra := []int{1, 2, 3}                                                                                          // no finding: the literal stays on the stack
	m := map[string]int{}                                                                                            // no finding: the map stays on the stack
	p := new(enc)                                                                                                    // no finding: stays on the stack
	q := &enc{}                                                                                                      // no finding: stays on the stack
	f := func() float64 { return 1 }                                                                                 // no finding: the closure stays on the stack
	buf = append(buf, 1)                                                                                             // no finding: -m=1 is silent on growth; the measured gate binds it
	b := []byte(s)                                                                                                   // no finding: a zero-copy conversion
	s2 := string(b)                                                                                                  // want generic/hotalloc
	e.sink = x[0]                                                                                                    // want generic/hotalloc
	fmt.Fprintln(nil, s2)                                                                                            // want generic/hotalloc
	return big(x[0]) + f() + float64(m[s]) + float64(len(extra)) + float64(p.count.Load()) + float64(q.count.Load()) // no finding: nothing here escapes
}

//generic:hotpath
func boxing(e *enc) {
	box(e.count.Load()) // no finding: box inlines and its argument does not escape
	box(e.sink)         // no finding: already an interface
	box(nil)            // no finding: untyped nil
}

func box(v any) { _ = v }

// spawns: every go statement in a hot function is a finding, read from the
// syntax tree. -m=1 prints the closure's escape on the first line but
// nothing for the argument wrapper the second allocates.
//
//generic:hotpath
func spawns(e *enc) {
	go func() { e.count.Add(1) }() // want generic/hotalloc
	go tick(e)                     // want generic/hotalloc
}

func tick(e *enc) { e.count.Add(1) }

// lazyInit shows that a guard does not exempt an allocation: a make behind
// a nil or cap check still escapes, so amortized growth on a hot path is
// suppressed with its reason, as Acc.Reset's staging is.
//
//generic:hotpath
func lazyInit(e *enc, n int) {
	if e.scratch == nil {
		e.scratch = make([]float64, n) // want generic/hotalloc
	}
	if cap(e.scratch) < n {
		//lint:ignore generic/hotalloc fixture: grows once, then the scratch is reused
		e.scratch = make([]float64, n)
	}
	out := make([]float64, 0, n) // want generic/hotalloc
	for i := 0; i < n; i++ {
		out = append(out, float64(i)) // no finding: appends into spare capacity
	}
	e.scratch = out
}

// suppressed proves //lint:ignore generic/hotalloc silences a finding.
//
//generic:hotpath
func suppressed(n int) []float64 {
	//lint:ignore generic/hotalloc fixture: result buffer is the function's output
	out := make([]float64, n)
	return out
}

// cold is not annotated: nothing below may be reported.
func cold(n int) []float64 {
	defer func() {}()
	return make([]float64, n)
}
