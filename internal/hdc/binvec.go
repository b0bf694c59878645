// Package hdc implements the hyperdimensional-computing primitives that the
// GENERIC engine is built on: bit-packed binary hypervectors with bipolar
// (±1) semantics, XOR binding, rotation (permutation), bundling accumulators,
// level-hypervector ladders, and rotating-seed id generation.
//
// Binary hypervectors are stored one bit per dimension in []uint64 words;
// bit 1 represents bipolar +1 and bit 0 represents −1. Under this mapping,
// element-wise bipolar multiplication is XOR of the complement — we follow
// the usual HDC convention where XOR itself is used as the bind operator
// (it flips the sign convention uniformly, which no similarity metric can
// observe). Dot products reduce to popcounts:
//
//	dot(a, b) = D − 2·hamming(a, b)
//
// Rotation, bundling and the level ladder work word-wise and require D to be
// a multiple of 64; GENERIC's native sizes (512 … 8192, sub-norm granularity
// 128) all satisfy this.
package hdc

import (
	"fmt"
	"math/bits"

	"github.com/edge-hdc/generic/internal/rng"
)

// WordBits is the number of dimensions packed per storage word.
const WordBits = 64

// BinVec is a binary hypervector: one bit per dimension packed into uint64
// words, bit 1 meaning bipolar +1 and bit 0 meaning −1. It is the engine's
// one packed type: level rows, id seeds and encoder window scratch, and the
// binarized class memories and queries of the binary inference engine, which
// score by Hamming distance via XOR + popcount. A binarized query or class is
// the packed counterpart of a Vec collapsed to its signs (v >= 0 → +1).
//
// Any positive dimensionality is accepted. The final storage word is
// partially used when D is not word-aligned; the unused high bits of that
// tail word are zero by invariant, which every kernel preserves and Hamming
// relies on (a ^ b of two masked tails contributes no phantom ones).
type BinVec struct {
	d     int
	words []uint64
}

// NewBinVec returns an all-zero (all −1 bipolar) hypervector of d
// dimensions. Any positive d is accepted; the tail word is masked.
func NewBinVec(d int) *BinVec {
	if d <= 0 {
		panic(fmt.Sprintf("hdc: BinVec dimensionality %d must be positive", d))
	}
	return &BinVec{d: d, words: make([]uint64, binWords(d))}
}

// RandomBinVec returns a hypervector with i.i.d. uniform random bits.
func RandomBinVec(d int, r *rng.Rand) *BinVec {
	v := NewBinVec(d)
	r.FillBits(v.words)
	v.words[len(v.words)-1] &= tailMask(d)
	return v
}

// binWords returns the number of storage words for d dimensions.
func binWords(d int) int { return (d + WordBits - 1) / WordBits }

// tailMask returns the valid-bit mask of the final storage word for d
// dimensions: all ones when d is word-aligned, else the low d mod 64 bits.
func tailMask(d int) uint64 {
	if r := uint(d) % WordBits; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// D returns the dimensionality.
func (v *BinVec) D() int { return v.d }

// Words exposes the packed storage. The slice must not be resized, and
// writers must preserve the tail-word invariant (bits at positions >= D in
// the final word stay zero).
func (v *BinVec) Words() []uint64 { return v.words }

// Bit reports dimension i as 0 or 1. It panics if i is out of range — the
// tail bits beyond D are not addressable.
func (v *BinVec) Bit(i int) int {
	v.checkIndex("Bit", i)
	return int(v.words[i/WordBits]>>(uint(i)%WordBits)) & 1
}

// SetBit sets dimension i to b (0 or 1). It panics if i is out of range, so
// the tail-word invariant cannot be violated through it.
func (v *BinVec) SetBit(i, b int) {
	v.checkIndex("SetBit", i)
	w, m := i/WordBits, uint64(1)<<(uint(i)%WordBits)
	if b != 0 {
		v.words[w] |= m
	} else {
		v.words[w] &^= m
	}
}

func (v *BinVec) checkIndex(op string, i int) {
	if i < 0 || i >= v.d {
		panic(fmt.Sprintf("hdc: BinVec.%s index %d out of range [0,%d)", op, i, v.d))
	}
}

// Bipolar reports dimension i as +1 or −1.
func (v *BinVec) Bipolar(i int) int { return 2*v.Bit(i) - 1 }

// OnesCount returns the number of 1 (+1) dimensions.
func (v *BinVec) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy of v.
func (v *BinVec) Clone() *BinVec {
	c := NewBinVec(v.d)
	copy(c.words, v.words)
	return c
}

// CopyFrom overwrites v with src. The dimensionalities must match.
//
//generic:hotpath
func (v *BinVec) CopyFrom(src *BinVec) {
	mustSameDim("BinVec.CopyFrom", src.d, v.d)
	copy(v.words, src.words)
}

// Equal reports whether v and o have identical dimensionality and bits.
//
//lint:ignore generic/dimguard Equal is a predicate: mismatched dimensionalities compare unequal rather than panic.
func (v *BinVec) Equal(o *BinVec) bool {
	if v.d != o.d {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// XorInto stores a ⊕ b into dst. All three must share a dimensionality;
// dst may alias a or b.
func XorInto(dst, a, b *BinVec) {
	mustSameDim("XorInto", a.d, dst.d)
	mustSameDim("XorInto", b.d, dst.d)
	for i := range dst.words {
		dst.words[i] = a.words[i] ^ b.words[i]
	}
}

// XorAccumulate folds v into dst: dst ^= v.
func XorAccumulate(dst, v *BinVec) {
	mustSameDim("XorAccumulate", v.d, dst.d)
	for i := range dst.words {
		dst.words[i] ^= v.words[i]
	}
}

// RotateInto writes the circular rotation of src by k positions into dst:
// bit i of src becomes bit (i+k) mod D of dst. This is the permutation ρ(k)
// used by the permutation and GENERIC encodings and by the id generator.
// D must be a multiple of 64 (the word shift has no partial tail to wrap),
// and dst must not alias src unless k == 0.
func RotateInto(dst, src *BinVec, k int) {
	mustSameDim("RotateInto", src.d, dst.d)
	checkDim(src.d)
	n := len(src.words)
	k %= src.d
	if k < 0 {
		k += src.d
	}
	if k == 0 {
		copy(dst.words, src.words)
		return
	}
	ws, bs := k/WordBits, uint(k%WordBits)
	if bs == 0 {
		for w := 0; w < n; w++ {
			dst.words[w] = src.words[((w-ws)%n+n)%n]
		}
		return
	}
	for w := 0; w < n; w++ {
		lo := src.words[((w-ws)%n+n)%n]
		hi := src.words[((w-ws-1)%n+n)%n]
		dst.words[w] = lo<<bs | hi>>(WordBits-bs)
	}
}

// Rotate returns a freshly allocated rotation of v by k positions.
func Rotate(v *BinVec, k int) *BinVec {
	dst := NewBinVec(v.d)
	RotateInto(dst, v, k)
	return dst
}

// PackSigns binarizes src into v: bit i is 1 exactly when src[i] >= 0 — the
// same sign rule Vec quantization to one bit uses (v >= 0 → +1, v < 0 → −1),
// so packing a Quantize(1) class counter and binarizing the raw counter give
// identical bits. The tail word is masked by construction.
//
//generic:hotpath
func (v *BinVec) PackSigns(src Vec) {
	mustSameDim("BinVec.PackSigns", len(src), v.d)
	i := 0
	for w := range v.words {
		n := v.d - i
		if n > WordBits {
			n = WordBits
		}
		var word uint64
		for b := 0; b < n; b++ {
			if src[i] >= 0 {
				word |= 1 << uint(b)
			}
			i++
		}
		v.words[w] = word
	}
}

// Unpack materializes v as a bipolar integer vector: dst[i] = +1 when bit i
// is 1, −1 otherwise. dst must have length D.
//
//generic:hotpath
func (v *BinVec) Unpack(dst Vec) {
	mustSameDim("BinVec.Unpack", len(dst), v.d)
	for i := range dst {
		dst[i] = int32(2*(v.words[i/WordBits]>>(uint(i)%WordBits)&1)) - 1
	}
}

// Hamming returns the number of dimensions where v and o differ. With the
// tail-word invariant, a plain popcount over XORed words is exact at any D.
//
//generic:hotpath
func (v *BinVec) Hamming(o *BinVec) int {
	mustSameDim("BinVec.Hamming", o.d, v.d)
	h := 0
	for i, w := range v.words {
		h += bits.OnesCount64(w ^ o.words[i])
	}
	return h
}

// HammingPrefix returns the Hamming distance over the first dims dimensions
// only — the packed analogue of Vec.DotPrefix, used for reduced-dimension
// inference. It panics if dims is outside (0, D].
//
//generic:hotpath
func (v *BinVec) HammingPrefix(o *BinVec, dims int) int {
	mustSameDim("BinVec.HammingPrefix", o.d, v.d)
	if dims <= 0 || dims > v.d {
		panic(fmt.Sprintf("hdc: BinVec.HammingPrefix dims %d out of range (0,%d]", dims, v.d))
	}
	full := dims / WordBits
	h := 0
	for i := 0; i < full; i++ {
		h += bits.OnesCount64(v.words[i] ^ o.words[i])
	}
	if r := uint(dims) % WordBits; r != 0 {
		h += bits.OnesCount64((v.words[full] ^ o.words[full]) & (1<<r - 1))
	}
	return h
}

// Dot returns the bipolar dot product D − 2·hamming(v, o): identical vectors
// score D, orthogonal vectors ≈ 0 — the packed equivalent of Vec dot on two
// sign-binarized vectors.
//
//generic:hotpath
func (v *BinVec) Dot(o *BinVec) int {
	mustSameDim("BinVec.Dot", o.d, v.d)
	return v.d - 2*v.Hamming(o)
}

// String renders a short diagnostic form.
func (v *BinVec) String() string {
	return fmt.Sprintf("BinVec(D=%d, ones=%d)", v.d, v.OnesCount())
}
