//go:build !amd64

package hdc

// dot returns the dot product of a and the first len(a) elements of b.
// Without an assembly kernel the reference loop runs everywhere.
//
//generic:hotpath
func dot(a, b Vec) int64 { return dotRef(a, b) }

// Without the 16-bit-lane kernel every Query takes dot.
func laneBlock(Vec, int) int { return 0 }

func dotLanes(a, b Vec, _ int) int64 { return dotRef(a, b) }

// widen8 stores (add false) or adds (add true) the sign-extended src into
// dst, which has src's length.
//
//generic:hotpath
func widen8(dst Vec, src []int8, add bool) { widen8Ref(dst, src, add) }

// add adds src into dst element-wise; dst has src's length.
//
//generic:hotpath
func add(dst, src Vec) { addRef(dst, src) }
