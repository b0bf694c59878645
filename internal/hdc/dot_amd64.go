package hdc

// useAVX2 gates dotAVX2: the CPU must implement AVX2 and the operating
// system must save the YMM registers across context switches.
var useAVX2 = hasAVX2()

// dotAVX2 returns the dot product of the n int32 elements at a and b; n must
// be a multiple of 16. Implemented in dot_amd64.s.
//
//go:noescape
func dotAVX2(a, b *int32, n int) int64

// dot16AVX2 returns the dot product of the n int32 elements at a and b on
// 16-bit lanes; see laneBlock for its precondition. n must be a multiple of
// 16 and block positive. Implemented in dot_amd64.s.
//
//go:noescape
func dot16AVX2(a, b *int32, n, block int) int64

// maxAbsAVX2 returns the largest |a[i]| of the first n elements, n a
// multiple of 16.
//
//go:noescape
func maxAbsAVX2(a *int32, n int) uint32

// widenAVX2 and addWidenAVX2 sign-extend the first n elements of src into
// dst, storing or adding; n must be a multiple of 16.
//
//go:noescape
func widenAVX2(dst *int32, src *int8, n int)

//go:noescape
func addWidenAVX2(dst *int32, src *int8, n int)

// addAVX2 adds the first n elements of src into dst; n must be a multiple
// of 16.
//
//go:noescape
func addAVX2(dst, src *int32, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports AVX2 support with OS-enabled YMM state: CPUID leaf 1 must
// show OSXSAVE and AVX, XCR0 must enable the XMM and YMM state components,
// and CPUID leaf 7 must show AVX2.
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// dot returns the dot product of a and the first len(a) elements of b. With
// AVX2 the kernel takes the first len(a) &^ 15 elements and dotRef the tail;
// both add exact int64 products modulo 2^64, so the sum equals dotRef's.
//
//generic:hotpath
func dot(a, b Vec) int64 {
	b = b[:len(a)]
	var s int64
	if n := len(a) &^ 15; useAVX2 && n > 0 {
		s = dotAVX2(&a[0], &b[0], n)
		a, b = a[n:], b[n:]
	}
	return s + dotRef(a, b)
}

// laneBlock selects the kernel of a Query of v against rows of bw-bit
// elements: the products each 32-bit lane of dot16AVX2 may add before it
// widens, or 0 for dot. The 16-bit-lane kernel needs both factors in int16.
// A row element of bw ≤ 16 bits lies in [−2^15, 2^15 − 1]; v's part of the
// kernel (its first len(v) &^ 15 elements) must lie within ±(2^15 − 1),
// which the max-abs pass observes. A lane then holds B products while
// B·2^15·max|v| ≤ 2^31 − 1: 520 at max|v| = 126, ISOLET's window count.
//
//generic:hotpath
func laneBlock(v Vec, bw int) int {
	n := len(v) &^ 15
	if !useAVX2 || n == 0 || bw < 1 || bw > 16 {
		return 0
	}
	m := maxAbsAVX2(&v[0], n)
	if m >= 1<<15 {
		return 0
	}
	return int((1<<31 - 1) / (1 << 15 * max(uint64(m), 1)))
}

// dotLanes returns the dot product of a and the first len(a) elements of b
// with the 16-bit-lane kernel over the first len(a) &^ 15 elements and dotRef
// over the tail.
//
//generic:hotpath
func dotLanes(a, b Vec, block int) int64 {
	b = b[:len(a)]
	n := len(a) &^ 15
	return dot16AVX2(&a[0], &b[0], n, block) + dotRef(a[n:], b[n:])
}

// widen8 stores (add false) or adds (add true) the sign-extended src into
// dst, which has src's length.
//
//generic:hotpath
func widen8(dst Vec, src []int8, add bool) {
	dst = dst[:len(src)]
	if n := len(src) &^ 15; useAVX2 && n > 0 {
		if add {
			addWidenAVX2(&dst[0], &src[0], n)
		} else {
			widenAVX2(&dst[0], &src[0], n)
		}
		dst, src = dst[n:], src[n:]
	}
	widen8Ref(dst, src, add)
}

// add adds src into dst element-wise modulo 2^32; dst has src's length.
//
//generic:hotpath
func add(dst, src Vec) {
	dst = dst[:len(src)]
	if n := len(src) &^ 15; useAVX2 && n > 0 {
		addAVX2(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	addRef(dst, src)
}
