package hdc

import "fmt"

// MaxSatBits is the widest signed class-element bit-width the saturating
// kernels accept. int32 storage leaves 31 usable magnitude+sign bits; the
// accelerator's native memories are 16-bit, but the software model allows
// wider sweeps.
const MaxSatBits = 31

// satBounds is the single source of the signed saturation range for a bw-bit
// class element: [−2^(bw−1), 2^(bw−1)−1]. Every kernel that clamps
// (Vec.Saturate, Vec.QuantizeTo, the fused update kernels) derives its
// bounds here, so a bit-width is interpreted identically everywhere. It
// panics in the canonical "hdc:" shape when bw is out of range.
func satBounds(op string, bw int) (lo, hi int32) {
	if bw <= 0 || bw > MaxSatBits {
		panic(fmt.Sprintf("hdc: %s bit-width %d out of range [1,%d]", op, bw, MaxSatBits))
	}
	hi = int32(1)<<(uint(bw)-1) - 1
	return -hi - 1, hi
}

// checkDim panics unless d is a positive multiple of WordBits — the
// precondition of the word-wise kernels: rotation, bundling and the level
// ladder.
func checkDim(d int) {
	if d <= 0 || d%WordBits != 0 {
		panic(fmt.Sprintf("hdc: dimensionality %d must be a positive multiple of %d", d, WordBits))
	}
}

// mustSameDim panics in the canonical dimensionality-mismatch shape when
// got ≠ want. All two-vector kernels lead with it (or with a sibling
// checker), which generic/dimguard enforces mechanically.
func mustSameDim(op string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("hdc: %s dimensionality mismatch: got %d, want %d", op, got, want))
	}
}
