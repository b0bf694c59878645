// Package approx implements the approximate arithmetic GENERIC's datapath
// uses: Mitchell's logarithm-based division (IRE Trans. 1962), which the
// accelerator employs to normalize dot-product scores by class norms
// without a hardware divider (paper §4.2.1, ref [18]).
//
// Mitchell's method approximates log₂(2ⁿ·(1+f)) ≈ n + f and its inverse
// 2^(k+f) ≈ 2ᵏ·(1+f); a division a/b becomes an exponent subtraction.
// Raw Mitchell has up to 8.6% error per op, which is too coarse to rank
// near-tied HDC similarity scores, so — as hardware log dividers commonly
// do — we add the one-multiplier quadratic correction term c·f·(1−f)
// (c ≈ 0.344), shrinking the log error to ≲ 0.6% and keeping the divider's
// cost at one extra multiply per operand. The sim package's equivalence
// tests verify the corrected divider preserves the inference argmax.
package approx

import "math/bits"

// FracBits is the fixed-point fractional precision of the log domain,
// matching a 16-bit hardware log unit.
const FracBits = 16

// corrC is the quadratic correction coefficient 0.344 in Q(FracBits).
const corrC = 22544

// corr returns c·f·(1−f) in Q(FracBits) for a fractional part f.
func corr(f uint64) uint64 {
	return (f * ((1 << FracBits) - f) >> FracBits) * corrC >> FracBits
}

// Log2Fixed returns the error-corrected Mitchell approximation of log₂(x)
// in Q(FracBits) fixed point: n + f + c·f·(1−f). x must be positive.
func Log2Fixed(x uint64) int64 {
	if x == 0 {
		panic("approx: Log2Fixed(0)")
	}
	n := bits.Len64(x) - 1 // position of the leading one
	var frac uint64
	if n >= FracBits {
		frac = (x - 1<<uint(n)) >> uint(n-FracBits)
	} else {
		frac = (x - 1<<uint(n)) << uint(FracBits-n)
	}
	return int64(n)<<FracBits + int64(frac) + int64(corr(frac))
}

// Exp2Fixed returns the error-corrected Mitchell approximation of
// 2^(l/2^FracBits) for a fixed-point exponent l ≥ 0: 2ᵏ·(1 + f − c·f·(1−f)).
func Exp2Fixed(l int64) uint64 {
	if l < 0 {
		return 0 // result < 1 truncates to 0 in the integer datapath
	}
	k := l >> FracBits
	f := uint64(l & (1<<FracBits - 1))
	if k >= 63 {
		return 1 << 63 // saturate
	}
	base := uint64(1) << uint(k)
	mant := (1<<FracBits + f - corr(f))
	return base * mant >> FracBits
}

// ScoreScaleBits is the number of extra fractional bits the score register
// carries: ScoreApprox returns sign(dot)·(dot²/norm2)·2^ScoreScaleBits so
// that small similarity scores are not destroyed by integer truncation.
// Rankings are unaffected; only the fixed scale changes.
const ScoreScaleBits = 10

// ScoreApprox computes the accelerator's similarity score
// sign(dot)·(dot²)/norm2 (scaled by 2^ScoreScaleBits) using Mitchell
// division, in integer arithmetic. A zero norm ranks the class last (most
// negative representable score).
func ScoreApprox(dot int64, norm2 int64) int64 {
	if norm2 <= 0 {
		return -1 << 62
	}
	mag := dot
	if mag < 0 {
		mag = -mag
	}
	// dot² can exceed 64 bits only for |dot| > 2³¹·√2; GENERIC's 16-bit
	// classes with D ≤ 8K keep |dot| well below that (|dot| ≤ D·2¹⁵·Hmax).
	// Work in the log domain directly to avoid the squaring overflow:
	// log(dot²/norm2) = 2·log|dot| − log(norm2).
	if mag == 0 {
		return 0
	}
	l := 2*Log2Fixed(uint64(mag)) - Log2Fixed(uint64(norm2)) + ScoreScaleBits<<FracBits
	q := int64(Exp2Fixed(l))
	if dot < 0 {
		return -q
	}
	return q
}
