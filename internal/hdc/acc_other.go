//go:build !amd64

package hdc

// useAVX2 stays false off amd64; the bundle tests read it to choose the
// paths they run.
var useAVX2 = false

// Off amd64 there is no bundle kernel: the Go path reads out every word.
func (a *Acc) bipolarKernel([]int32) int  { return 0 }
func (a *Acc) majorityKernel(*BinVec) int { return 0 }

func (a *Acc) bipolar8Kernel([]int8) int { return 0 }

// Off amd64 the Go loops stage every word.
func xorKernel([]uint64, []*BinVec, int, int, int, int) int { return 0 }
