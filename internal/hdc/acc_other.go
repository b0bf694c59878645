//go:build !amd64

package hdc

// useAVX2 stays false off amd64; the bundle tests read it to choose the
// paths they run.
var useAVX2 = false

// Off amd64 there is no bundle kernel: the Go path reads out every word.
func (a *Acc) bipolarKernel([]int32) int  { return 0 }
func (a *Acc) majorityKernel(*BinVec) int { return 0 }

// xorRows sets each word of dst to the XOR of that word of every source.
//
//generic:hotpath
func xorRows(dst []uint64, srcs []*BinVec) { xorRowsRef(dst, srcs, 0) }
