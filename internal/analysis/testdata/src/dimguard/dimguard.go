// Package hdc is a golden fixture for the generic/dimguard analyzer. It
// mirrors the real internal/hdc type names (the analyzer recognizes Vec and
// BinVec declared in the package under its import path) and seeds kernels
// with and without the leading dimensionality guard.
package hdc

import "fmt"

// Vec mirrors hdc.Vec.
type Vec []int32

// BinVec mirrors hdc.BinVec.
type BinVec struct {
	d     int
	words []uint64
}

// Unguarded lacks the leading check entirely.
func Unguarded(a, b *BinVec) int { // want generic/dimguard
	return len(a.words) - len(b.words)
}

// LateGuard checks, but not as the first statement.
func LateGuard(v, o Vec) { // want generic/dimguard
	_ = len(v)
	mustSameLen("LateGuard", v, o)
}

// WrongPrefix panics without the hdc: prefix.
func WrongPrefix(a, b *BinVec) int { // want generic/dimguard
	if a.d != b.d {
		panic("dimensionality mismatch")
	}
	return a.d
}

// InlineGuard leads with an if statement that panics in shape: allowed.
func InlineGuard(a, b *BinVec) int {
	if a.d != b.d {
		panic(fmt.Sprintf("hdc: InlineGuard dimensionality mismatch: got %d, want %d", b.d, a.d))
	}
	return a.d
}

// DelegatedGuard leads with a package-local checker call: allowed.
func DelegatedGuard(v, o Vec) {
	mustSameLen("DelegatedGuard", v, o)
}

// AssignedGuard takes the checker's return values: allowed.
func AssignedGuard(v, o Vec) int32 {
	lo, hi := fusedCheck("AssignedGuard", v, o)
	return hi - lo
}

// SingleVector takes one hypervector: exempt.
func SingleVector(v Vec) int { return len(v) }

// ScalarArgs takes no hypervectors: exempt.
func ScalarArgs(a, b int) int { return a + b }

// Predicate is exempted by directive: allowed.
//
//lint:ignore generic/dimguard predicates report a mismatch as false rather than panicking
func Predicate(a, b *BinVec) bool { return a.d == b.d }

// unexported kernels are outside the exported-API contract.
func unexported(a, b *BinVec) int { return a.d + b.d }

func mustSameLen(op string, a, b Vec) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hdc: %s dimensionality mismatch: got %d, want %d", op, len(b), len(a)))
	}
}

func fusedCheck(op string, v, o Vec) (lo, hi int32) {
	mustSameLen(op, v, o)
	return -8, 7
}
