package hdc

import "math/bits"

// Acc bundles binary hypervectors: it counts, per dimension, how many of the
// added vectors had bit 1. Counts are kept bit-sliced — plane j holds bit j
// of every dimension's counter — so adding a vector costs a handful of word
// operations per 64 dimensions instead of 64 integer additions. This mirrors
// the counter-based bundling datapath of HDC accelerators.
//
// After adding W vectors, the bipolar bundle value of dimension i is
// 2·count(i) − W, which Bipolar() materializes into an integer vector.
type Acc struct {
	d      int
	n      int // number of vectors added
	planes [][]uint64
	carry  []uint64 // scratch for the ripple-carry add
}

// NewAcc returns an empty accumulator of d dimensions.
func NewAcc(d int) *Acc {
	checkDim(d)
	return &Acc{d: d}
}

// D returns the dimensionality.
func (a *Acc) D() int { return a.d }

// Count returns the number of vectors added so far.
func (a *Acc) Count() int { return a.n }

// Reset empties the accumulator for reuse without reallocating planes.
//
//generic:hotpath
func (a *Acc) Reset() {
	a.n = 0
	for _, p := range a.planes {
		for i := range p {
			p[i] = 0
		}
	}
}

// Add bundles v into the accumulator.
func (a *Acc) Add(v *BinVec) {
	mustSameDim("Acc.Add", v.d, a.d)
	a.n++
	nw := a.d / WordBits
	// Ripple-carry add of the 1-bit vector into the bit-sliced counters.
	if a.carry == nil {
		//lint:ignore generic/escapes one-time carry-buffer growth behind the nil guard above
		a.carry = make([]uint64, nw)
	}
	carry := a.carry
	copy(carry, v.words)
	for j := 0; ; j++ {
		if j == len(a.planes) {
			//lint:ignore generic/hotalloc,generic/escapes plane growth is amortized: ceil(log2(n)) appends over an accumulator's lifetime, not per call
			a.planes = append(a.planes, make([]uint64, nw))
		}
		plane := a.planes[j]
		done := true
		for w := 0; w < nw; w++ {
			c := carry[w]
			if c == 0 {
				continue
			}
			old := plane[w]
			plane[w] = old ^ c
			carry[w] = old & c
			if carry[w] != 0 {
				done = false
			}
		}
		if done {
			return
		}
	}
}

// CountAt returns the per-dimension count for dimension i.
func (a *Acc) CountAt(i int) int {
	c := 0
	w, b := i/WordBits, uint(i)%WordBits
	for j, p := range a.planes {
		c |= int(p[w]>>b&1) << uint(j)
	}
	return c
}

// Counts writes the per-dimension counts into dst, which must have length D.
//
//generic:hotpath
func (a *Acc) Counts(dst []int32) {
	mustSameDim("Acc.Counts", len(dst), a.d)
	for i := range dst {
		dst[i] = 0
	}
	for j, p := range a.planes {
		for w, word := range p {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				dst[w*WordBits+b] += 1 << uint(j)
				word &= word - 1
			}
		}
	}
}

// Bipolar writes the bipolar bundle 2·count − n into dst (length D).
//
//generic:hotpath
func (a *Acc) Bipolar(dst []int32) {
	a.Counts(dst)
	n := int32(a.n)
	for i := range dst {
		dst[i] = 2*dst[i] - n
	}
}

// MajorityInto materializes the sign-binarized bundle directly into out:
// bit i is 1 exactly when the bipolar bundle value 2·count(i) − n is >= 0,
// i.e. count(i) >= ceil(n/2) — the same v >= 0 → +1 rule BinVec.PackSigns
// applies to integer counters, so MajorityInto(out) equals Bipolar(tmp) +
// PackSigns(tmp) without materializing the integer vector. An empty
// accumulator yields all ones (sign(0) → +1), matching PackSigns on a zero
// counter vector.
//
// The comparison runs word-parallel on the bit-sliced counter planes: a
// borrow-propagating subtraction of the scalar threshold across 64 counters
// at a time; a lane ends with no borrow exactly when its count reaches the
// threshold.
//
//generic:hotpath
func (a *Acc) MajorityInto(out *BinVec) {
	mustSameDim("Acc.MajorityInto", out.d, a.d)
	thr := uint64(a.n+1) / 2
	// Planes only grow when some counter actually carried that high, so the
	// threshold may need more bit positions than exist; absent planes are
	// all-zero counter bits.
	nk := len(a.planes)
	if b := bits.Len64(thr); b > nk {
		nk = b
	}
	for w := range out.words {
		borrow := uint64(0)
		for k := 0; k < nk; k++ {
			var c uint64
			if k < len(a.planes) {
				c = a.planes[k][w]
			}
			var t uint64
			if thr>>uint(k)&1 == 1 {
				t = ^uint64(0)
			}
			borrow = ^c&(t|borrow) | t&borrow
		}
		out.words[w] = ^borrow
	}
	out.words[len(out.words)-1] &= tailMask(out.d)
}
