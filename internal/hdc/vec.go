package hdc

import "fmt"

// Vec is an integer hypervector: the result of bundling binary hypervectors
// (an encoded query) or of accumulating encoded queries (a class or centroid
// hypervector). GENERIC's class memories hold these at 16-bit precision; Vec
// uses int32 in software and models the hardware bit-width via Saturate and
// classifier-level masking.
type Vec []int32

// NewVec returns a zero vector of d dimensions.
func NewVec(d int) Vec { return make(Vec, d) }

// Clone returns a deep copy.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// AddInto accumulates o into v element-wise, modulo 2^32.
func (v Vec) AddInto(o Vec) {
	mustSameLen("Vec.AddInto", v, o)
	add(v, o)
}

// addRef is add's reference: dst[i] += src[i].
func addRef(dst, src Vec) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] += x
	}
}

// SubInto subtracts o from v element-wise.
func (v Vec) SubInto(o Vec) {
	mustSameLen("Vec.SubInto", v, o)
	for i, x := range o {
		v[i] -= x
	}
}

// Dot returns the dot product of v and o as int64.
func (v Vec) Dot(o Vec) int64 {
	mustSameLen("Vec.Dot", v, o)
	return dot(v, o)
}

// DotPrefix returns the dot product of the first d dimensions only, used by
// on-demand dimension reduction.
func (v Vec) DotPrefix(o Vec, d int) int64 {
	if d < 0 || d > len(v) || d > len(o) {
		panic("hdc: DotPrefix length out of range")
	}
	return dot(v[:d], o)
}

// Norm2 returns the squared L2 norm as int64.
func (v Vec) Norm2() int64 { return dot(v, v) }

// dotRef is the reference dot product of a and the first len(a) elements of
// b: exact int64 products summed modulo 2^64. It runs dot's tail and every
// dot without a vector kernel, and the kernel tests compare against it.
func dotRef(a, b Vec) int64 {
	var s int64
	for i, x := range a {
		s += int64(x) * int64(b[i])
	}
	return s
}

// CosineScore returns the modified cosine similarity the paper uses for
// ranking: sign(H·C) · (H·C)² / ‖C‖², which orders classes identically to
// true cosine (the query norm is constant across classes and the square
// root is monotone). norm2 must be the squared L2 norm of v.
// A zero (or corrupted-negative) norm scores negative infinity ranking-wise,
// returned here as the most negative finite value to keep arithmetic simple.
func CosineScore(dot int64, norm2 int64) float64 {
	if norm2 <= 0 {
		return -1e308
	}
	s := float64(dot) * float64(dot) / float64(norm2)
	if dot < 0 {
		return -s
	}
	return s
}

// Saturate clamps every element of v to the signed range of bw bits
// ([−2^(bw−1), 2^(bw−1)−1]), modeling a fixed-width class memory.
func (v Vec) Saturate(bw int) {
	lo, hi := satBounds("Vec.Saturate", bw)
	for i, x := range v {
		if x > hi {
			v[i] = hi
		} else if x < lo {
			v[i] = lo
		}
	}
}

// QuantizeTo rounds v to bw-bit precision by keeping the top bw bits of the
// magnitude range maxAbs, mimicking loading a quantized model into GENERIC
// (the mask unit masks out unused bits). Elements are scaled into
// [−2^(bw−1), 2^(bw−1)−1] proportionally to maxAbs.
func (v Vec) QuantizeTo(bw int, maxAbs int32) {
	if bw > 16 {
		panic(fmt.Sprintf("hdc: Vec.QuantizeTo bit-width %d out of range [1,16]", bw))
	}
	lo32, hi32 := satBounds("Vec.QuantizeTo", bw)
	if maxAbs <= 0 {
		return
	}
	lo, hi := int64(lo32), int64(hi32)
	for i, x := range v {
		q := (int64(x)*hi + int64(maxAbs)/2) / int64(maxAbs)
		if q > hi {
			q = hi
		} else if q < lo {
			q = lo
		}
		v[i] = int32(q)
	}
}

// MaxAbs returns the largest absolute element value (0 for an empty vector).
func (v Vec) MaxAbs() int32 {
	var m int32
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

func mustSameLen(op string, a, b Vec) {
	mustSameDim(op, len(b), len(a))
}
