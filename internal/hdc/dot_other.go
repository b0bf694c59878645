//go:build !amd64

package hdc

// dot returns the dot product of a and the first len(a) elements of b.
// Without an assembly kernel the reference loop runs everywhere.
//
//generic:hotpath
func dot(a, b Vec) int64 { return dotRef(a, b) }
