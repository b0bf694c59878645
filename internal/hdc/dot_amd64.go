package hdc

// useAVX2 gates dotAVX2: the CPU must implement AVX2 and the operating
// system must save the YMM registers across context switches.
var useAVX2 = hasAVX2()

// dotAVX2 returns the dot product of the n int32 elements at a and b; n must
// be a multiple of 16. Implemented in dot_amd64.s.
//
//go:noescape
func dotAVX2(a, b *int32, n int) int64

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
