package hdc

// The bundle kernels (acc_amd64.s) run count's carry-save tree over whole
// 256-lane columns, four words at a time, and read the counts out in the
// same pass. They keep all eight counter planes in YMM registers, so they
// take bundles of 1 to 255 rows; larger bundles, the last nw mod 4 words of
// each row, and CPUs without AVX2 take the Go path.

//go:noescape
func bipolarAVX2(rows *uint64, nw, n, cols int, dst *int32, scratch *[8][4]uint64)

//go:noescape
func majorityAVX2(rows *uint64, nw, n, cols int, out *uint64, thr *[8][4]uint64)

// kernelWords returns how many leading words of each row the bundle kernel
// reads out: every whole column when the gate is on and the counts fit its
// planes, else none.
func (a *Acc) kernelWords() int {
	if !useAVX2 || a.n == 0 || a.n > 255 {
		return 0
	}
	return a.nw &^ 3
}

// bipolarKernel writes Bipolar's output for the leading words the kernel
// takes and returns their count.
//
//generic:hotpath
func (a *Acc) bipolarKernel(dst []int32) int {
	kw := a.kernelWords()
	if kw > 0 {
		bipolarAVX2(&a.rows[0], a.nw, a.n, kw/4, &dst[0], &a.ymm)
	}
	return kw
}

// majorityKernel writes MajorityInto's output for the leading words the
// kernel takes and returns their count. Bit k of the threshold reaches the
// kernel as an all-ones or all-zeros row of the scratch.
//
//generic:hotpath
func (a *Acc) majorityKernel(out *BinVec) int {
	kw := a.kernelWords()
	if kw > 0 {
		thr := uint64(a.n+1) / 2
		for k := range a.ymm {
			t := -(thr >> uint(k) & 1)
			a.ymm[k] = [4]uint64{t, t, t, t}
		}
		majorityAVX2(&a.rows[0], a.nw, a.n, kw/4, &out.words[0], &a.ymm)
	}
	return kw
}

//go:noescape
func bipolar8AVX2(rows *uint64, nw, n, cols int, dst *int8)

// bipolar8Kernel writes Bipolar8's output for the leading words the kernel
// takes and returns their count.
//
//generic:hotpath
func (a *Acc) bipolar8Kernel(dst []int8) int {
	kw := a.kernelWords()
	if kw > 0 {
		bipolar8AVX2(&a.rows[0], a.nw, a.n, kw/4, &dst[0])
	}
	return kw
}

//go:noescape
func xorAVX2(dst *uint64, srcs **BinVec, k, d, nw, rows int) bool

// xorKernel stages rows rows of nw words at dst, row r the XOR of
// srcs[k·r : k·r+k], and returns how many leading words of each row it
// wrote: the multiple of four the AVX2 kernel takes, or none without it.
// The kernel checks that every source has dimensionality d before reading
// it and returns -1 at the first that does not.
//
//generic:hotpath
func xorKernel(dst []uint64, srcs []*BinVec, k, d, nw, rows int) int {
	n := nw &^ 3
	if !useAVX2 || n == 0 || rows == 0 {
		return 0
	}
	_ = dst[rows*nw-1]
	_ = srcs[rows*k-1]
	if !xorAVX2(&dst[0], &srcs[0], k, d, nw, rows) {
		return -1
	}
	return n
}
