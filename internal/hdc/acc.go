package hdc

import (
	"fmt"
	"math/bits"
)

// Acc is the engine's one bundler: it counts, per dimension, how many rows
// of a bundle have bit 1 — the counter-based bundling datapath of HDC
// accelerators (paper Fig. 4).
//
// A bundle is staged, then read out. Reset(n) starts a bundle of n rows and
// the caller writes each row in place through Row(i). The two readouts are
// views of the same counters: Bipolar materializes the exact bundle
// 2·count − n, and MajorityInto packs its signs. Each readout counts the
// staged rows once.
//
// Counting runs down each 64-lane word of the rows with a Harley-Seal
// carry-save tree: seven full adders compress eight rows into
// register-resident weight-1/2/4 counter words plus one weight-8 word, and
// only that weight-8 word ripples into the bit-sliced high counter planes
// (count bits 3 and up). One memory-plane visit per eight rows replaces a
// ripple-carry add per row. On amd64 with AVX2 an assembly kernel runs the
// same tree and readouts over 256 lanes at a time (acc_amd64.go); the Go
// code here is its reference and takes whatever the kernel does not.
type Acc struct {
	d, nw int
	n     int      // rows in the current bundle
	rows  []uint64 // row-major staging: row i is rows[i*nw : (i+1)*nw]
	views []BinVec // views[i] is row i as a BinVec; Row hands these out
	// cnt holds the counter planes of the word being counted: cnt[k] is bit
	// k of its 64 lanes' counts. A count of n rows needs bits.Len(n) planes,
	// and no int needs more than 64.
	cnt [64]uint64
	// ymm is the AVX2 kernel's scratch: the transposed counts of a column,
	// or the threshold masks of MajorityInto.
	ymm [8][4]uint64
}

// NewAcc returns an accumulator of d dimensions. Its staging is sized by
// the first Reset, so an accumulator that never bundles stays small.
func NewAcc(d int) *Acc {
	checkDim(d)
	return &Acc{d: d, nw: d / WordBits}
}

// Reset starts a bundle of n rows. Every row must then be written through
// Row before a readout: the staging is reused, so a row left unwritten
// holds whatever the previous bundle put there. The staging grows on the
// first Reset that needs more rows and is reused after.
//
//generic:hotpath
func (a *Acc) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("hdc: Acc.Reset with %d rows", n))
	}
	if n > len(a.views) {
		//lint:ignore generic/hotalloc staging growth is amortized: an encoder's bundles share one size, so it grows once
		a.grow(n)
	}
	a.n = n
}

// grow sizes the staging for n rows.
func (a *Acc) grow(n int) {
	a.rows = make([]uint64, n*a.nw)
	a.views = make([]BinVec, n)
	for i := range a.views {
		lo, hi := i*a.nw, (i+1)*a.nw
		a.views[i] = BinVec{d: a.d, words: a.rows[lo:hi:hi]}
	}
}

// Row returns row i of the current bundle as a view into the staging, for
// the caller to write. The view stays valid until a Reset grows the staging.
//
//generic:hotpath
func (a *Acc) Row(i int) *BinVec {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("hdc: Acc.Row index %d out of range [0,%d)", i, a.n))
	}
	return &a.views[i]
}

// csa is a carry-save full adder over 64 lanes: sum = a ^ b ^ c,
// carry = majority(a, b, c). Small enough to inline into the counting loop.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// count runs the carry-save tree down word w of every staged row and
// returns the counter planes of that word's 64 lanes, low bit first.
//
//generic:hotpath
func (a *Acc) count(w int) []uint64 {
	nk := bits.Len(uint(a.n))
	cnt := &a.cnt
	for k := 3; k < nk; k++ {
		cnt[k] = 0
	}
	var ones, twos, fours uint64
	rows, nw := a.rows, a.nw
	end := a.n * nw
	i := w
	for ; i+7*nw < end; i += 8 * nw {
		var twosA, twosB, foursA, foursB, eights uint64
		ones, twosA = csa(rows[i], rows[i+nw], ones)
		ones, twosB = csa(rows[i+2*nw], rows[i+3*nw], ones)
		twos, foursA = csa(twosA, twosB, twos)
		ones, twosA = csa(rows[i+4*nw], rows[i+5*nw], ones)
		ones, twosB = csa(rows[i+6*nw], rows[i+7*nw], ones)
		twos, foursB = csa(twosA, twosB, twos)
		fours, eights = csa(foursA, foursB, fours)
		for k := 3; eights != 0; k++ {
			cnt[k], eights = cnt[k]^eights, cnt[k]&eights
		}
	}
	for ; i < end; i += nw {
		v := rows[i]
		c2 := ones & v
		ones ^= v
		c4 := twos & c2
		twos ^= c2
		c8 := fours & c4
		fours ^= c4
		for k := 3; c8 != 0; k++ {
			cnt[k], c8 = cnt[k]^c8, cnt[k]&c8
		}
	}
	cnt[0], cnt[1], cnt[2] = ones, twos, fours
	return cnt[:nk]
}

// Bipolar writes the exact bundle 2·count − n into dst (length D).
//
// The counter planes are read out by bit transposition (Hacker's Delight
// §7-3), eight planes at a time: transposePlanes turns planes g..g+7 of a
// word into eight words, one per 8-lane group, whose byte b holds bits
// g..g+7 of that lane's count. The first group writes 2·count − n; a bundle
// of 256 rows or more has further groups, and each adds its bits.
//
//generic:hotpath
func (a *Acc) Bipolar(dst []int32) {
	mustSameDim("Acc.Bipolar", len(dst), a.d)
	n := int32(a.n)
	var t [8]uint64
	for w := a.bipolarKernel(dst); w < a.nw; w++ {
		out := (*[WordBits]int32)(dst[w*WordBits:])
		planes := a.count(w)
		transposePlanes(&t, planes)
		for j, c := range t {
			o := (*[8]int32)(out[8*j:])
			for b := range o {
				o[b] = 2*int32(uint8(c)) - n
				c >>= 8
			}
		}
		for g := 8; g < len(planes); g += 8 {
			transposePlanes(&t, planes[g:])
			for j, c := range t {
				o := (*[8]int32)(out[8*j:])
				for b := range o {
					o[b] += int32(uint8(c)) << (g + 1)
					c >>= 8
				}
			}
		}
	}
}

// Bipolar8 writes the exact bundle 2·count − n into dst (length D) as int8,
// which holds it exactly for a bundle of at most 127 rows; larger bundles
// panic. It equals Bipolar narrowed element by element.
//
//generic:hotpath
func (a *Acc) Bipolar8(dst []int8) {
	mustSameDim("Acc.Bipolar8", len(dst), a.d)
	if a.n > 127 {
		panic(fmt.Sprintf("hdc: Acc.Bipolar8 of %d rows, at most 127 fit int8", a.n))
	}
	n := int8(a.n)
	var t [8]uint64
	for w := a.bipolar8Kernel(dst); w < a.nw; w++ {
		out := (*[WordBits]int8)(dst[w*WordBits:])
		transposePlanes(&t, a.count(w))
		for j, c := range t {
			o := (*[8]int8)(out[8*j:])
			for b := range o {
				o[b] = 2*int8(uint8(c)) - n
				c >>= 8
			}
		}
	}
}

// StageXor stages a whole bundle in one call: it starts a bundle of
// len(srcs)/k rows, as Reset does, and writes row i as the XOR of
// srcs[i·k : (i+1)·k] — a windowed encoder's windows, each the bind of its
// k rows. k must be positive and divide len(srcs), and every source must
// have the accumulator's dimensionality; a row may alias a source. The
// kernel checks each source's dimensionality as it reads it; without the
// kernel, or when it finds a mismatch, the check runs here first.
//
//generic:hotpath
func (a *Acc) StageXor(srcs []*BinVec, k int) {
	if k < 1 || len(srcs)%k != 0 {
		panic(fmt.Sprintf("hdc: Acc.StageXor of %d sources in rows of %d", len(srcs), k))
	}
	a.Reset(len(srcs) / k)
	from := xorKernel(a.rows, srcs, k, a.d, a.nw, a.n)
	if from <= 0 {
		for _, s := range srcs {
			mustSameDim("Acc.StageXor", s.d, a.d)
		}
		from = 0
	}
	if from == a.nw {
		return
	}
	for i := 0; i < a.n; i++ {
		xorRowsRef(a.rows[i*a.nw:(i+1)*a.nw], srcs[i*k:(i+1)*k], from)
	}
}

// transposePlanes sets t[j] to byte j of the first eight planes, transposed:
// bit 8b+k of t[j] is bit 8j+b of planes[k], so byte b of t[j] holds lane
// 8j+b's bits of planes[0] through planes[7], low bit first. Planes past the
// end of planes read as zero.
//
//generic:hotpath
func transposePlanes(t *[8]uint64, planes []uint64) {
	*t = [8]uint64{}
	copy(t[:], planes)
	// Transpose t as an 8×8 byte matrix (row k is plane k, column j its
	// byte j): swap the off-diagonal 4×4, then 2×2, then 1×1 blocks.
	for k := 0; k < 4; k++ {
		x := (t[k]>>32 ^ t[k+4]) & 0x00000000FFFFFFFF
		t[k] ^= x << 32
		t[k+4] ^= x
	}
	for k := 0; k < 6; k += 4 {
		for i := k; i < k+2; i++ {
			x := (t[i]>>16 ^ t[i+2]) & 0x0000FFFF0000FFFF
			t[i] ^= x << 16
			t[i+2] ^= x
		}
	}
	for k := 0; k < 8; k += 2 {
		x := (t[k]>>8 ^ t[k+1]) & 0x00FF00FF00FF00FF
		t[k] ^= x << 8
		t[k+1] ^= x
	}
	// Transpose each word as an 8×8 bit matrix (row k is byte k) by the
	// same block swaps.
	for j, v := range t {
		x := (v ^ v>>28) & 0x00000000F0F0F0F0
		v ^= x ^ x<<28
		x = (v ^ v>>14) & 0x0000CCCC0000CCCC
		v ^= x ^ x<<14
		x = (v ^ v>>7) & 0x00AA00AA00AA00AA
		t[j] = v ^ x ^ x<<7
	}
}

// MajorityInto packs the signs of the bundle into out: bit i is 1 exactly
// when 2·count(i) − n >= 0, i.e. count(i) >= ceil(n/2) — the v >= 0 → +1 rule
// BinVec.PackSigns applies, so MajorityInto equals Bipolar followed by
// PackSigns without the integer vector. An empty bundle packs all ones.
//
// The comparison is a borrow-propagating subtraction of the threshold from
// 64 counters at a time; a lane ends with no borrow exactly when its count
// reaches the threshold. It runs over every counter plane, not just the
// threshold's bits: with n = 8 the threshold 4 has three bits, but a count
// of 8 has four.
//
//generic:hotpath
func (a *Acc) MajorityInto(out *BinVec) {
	mustSameDim("Acc.MajorityInto", out.d, a.d)
	thr := uint64(a.n+1) / 2
	for w := a.majorityKernel(out); w < len(out.words); w++ {
		borrow := uint64(0)
		for k, c := range a.count(w) {
			t := -(thr >> uint(k) & 1) // all ones where the threshold has bit k
			borrow = ^c&(t|borrow) | t&borrow
		}
		out.words[w] = ^borrow
	}
}
