// Package hotallochdc mirrors internal/hdc's shape to exercise hotalloc's
// default-hot rule: exported kernels taking a hypervector parameter are hot
// with no annotation, constructors and receiver-only methods are not, and
// //generic:coldpath opts out. Loaded under example.com/m/internal/hdc by
// the test; the same fixture under another path must stay silent.
package hotallochdc

import "fmt"

// Vec and BinVec mirror the real hypervector types.
type Vec []int32

type BinVec struct {
	d     int
	words []uint64
}

// NewBadVec allocates freely: New* names are exempt from the default-hot
// rule even with a vector parameter.
func NewBadVec(o Vec) Vec {
	c := make(Vec, len(o))
	copy(c, o)
	return c
}

// AddInto is default-hot (exported, Vec parameter) and clean.
func (v Vec) AddInto(o Vec) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("hdc: AddInto %d vs %d", len(v), len(o)))
	}
	for i, x := range o {
		v[i] += x
	}
}

// Scaled is default-hot and allocates its result per call.
func (v Vec) Scaled(o Vec, k int32) Vec {
	out := make(Vec, len(v)) // want generic/hotalloc
	for i, x := range o {
		out[i] = x * k
	}
	return out
}

// Grow is default-hot; the plane append is the sanctioned suppression site.
func (b *BinVec) Grow(o *BinVec) {
	if len(b.words) < len(o.words) {
		//lint:ignore generic/hotalloc fixture: amortized growth mirrors Acc.Add
		b.words = append(b.words, make([]uint64, len(o.words)-len(b.words))...)
	}
}

// Shrink is default-hot; the bare append must be flagged.
func (b *BinVec) Shrink(o *BinVec) {
	b.words = append(b.words, o.words...) // want generic/hotalloc
}

// Reverse is default-hot and clean under hotalloc; the directive below
// acknowledges a compiler-reported escape for the -escapes reconciliation
// tests.
func (v Vec) Reverse(o Vec) {
	//lint:ignore generic/escapes fixture: acknowledged compiler escape
	for i, x := range o {
		v[len(v)-1-i] = x
	}
}

// Hamming is default-hot (exported, BinVec parameter) and clean.
func (v *BinVec) Hamming(o *BinVec) int {
	if v.d != o.d {
		panic(fmt.Sprintf("hdc: Hamming %d vs %d", v.d, o.d))
	}
	h := 0
	for i, w := range v.words {
		if w != o.words[i] {
			h++
		}
	}
	return h
}

// Packed is default-hot via its BinVec parameter and allocates per call.
func Packed(o *BinVec) []uint64 {
	out := make([]uint64, len(o.words)) // want generic/hotalloc
	copy(out, o.words)
	return out
}

// Describe is receiver-only (no vector parameter): not default-hot, free to
// allocate.
func (v Vec) Describe() string {
	return fmt.Sprintf("vec[%d]", len(v))
}

// Materialize opts out of the default-hot rule explicitly.
//
//generic:coldpath
func (v Vec) Materialize(o Vec) Vec {
	out := make(Vec, len(o))
	copy(out, o)
	return out
}
