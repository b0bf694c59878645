package hdc

import "fmt"

// Set is an encoded set of Len() rows of D() elements: the training set an
// encoder produces. When the encoder bounds every element to a byte the set
// is one int8 slab (NewSet8), a quarter of the int32 rows it otherwise holds
// (VecSet). Readers take a row widened into int32 scratch (Widen) or added
// into an int32 sum (AddRow), so they see the same values either way.
type Set struct {
	n, d int
	vecs []Vec  // int32 rows, or nil
	i8   []int8 // row i is i8[i*d : (i+1)*d], or nil
}

// VecSet wraps int32 rows, which must share one length, as a set. The set
// keeps the rows.
func VecSet(vecs []Vec) Set {
	s := Set{n: len(vecs), vecs: vecs}
	if len(vecs) > 0 {
		s.d = len(vecs[0])
	}
	return s
}

// NewSet8 returns a zeroed int8 set of n rows of d elements.
func NewSet8(n, d int) Set {
	if n < 0 || d < 0 {
		panic(fmt.Sprintf("hdc: NewSet8 shape %d×%d", n, d))
	}
	return Set{n: n, d: d, i8: make([]int8, n*d)}
}

// Len returns the row count and D the row length.
func (s Set) Len() int { return s.n }
func (s Set) D() int   { return s.d }

// Narrow reports whether the set is an int8 slab.
func (s Set) Narrow() bool { return s.i8 != nil }

// Vec returns int32 row i of a VecSet (nil for an int8 set).
func (s Set) Vec(i int) Vec {
	if s.vecs == nil {
		return nil
	}
	return s.vecs[i]
}

// Row8 returns int8 row i of an int8 set, for its encoder to write (nil for
// a VecSet).
func (s Set) Row8(i int) []int8 {
	if s.i8 == nil {
		return nil
	}
	return s.i8[i*s.d : (i+1)*s.d : (i+1)*s.d]
}

// Scratch returns the scratch Widen needs: a row of D() elements for an
// int8 set, nil for a VecSet.
func (s Set) Scratch() Vec {
	if s.i8 == nil {
		return nil
	}
	return NewVec(s.d)
}

// Widen returns row i as int32: a VecSet's stored row, or scratch filled
// from an int8 set's slab. scratch must have length D() for an int8 set
// (see Scratch).
//
//generic:hotpath
func (s Set) Widen(i int, scratch Vec) Vec {
	if s.i8 == nil {
		return s.vecs[i]
	}
	mustSameDim("Set.Widen", len(scratch), s.d)
	widen8(scratch, s.Row8(i), false)
	return scratch
}

// AddRow adds row i into dst element-wise — the bundling of training
// initialization.
//
//generic:hotpath
func (s Set) AddRow(dst Vec, i int) {
	mustSameDim("Set.AddRow", len(dst), s.d)
	if s.i8 == nil {
		dst.AddInto(s.vecs[i])
		return
	}
	widen8(dst, s.Row8(i), true)
}

// widen8Ref is widen8's reference: dst[i] = src[i], or += with add.
func widen8Ref(dst Vec, src []int8, add bool) {
	dst = dst[:len(src)]
	if add {
		for i, x := range src {
			dst[i] += int32(x)
		}
		return
	}
	for i, x := range src {
		dst[i] = int32(x)
	}
}
