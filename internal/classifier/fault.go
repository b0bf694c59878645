package classifier

import "fmt"

// This file holds the model-side hooks of the fault layer (internal/faults):
// raw access to the norm2 memory words and the DistHD-style dimension drop
// that lets a dead class-memory bank degrade gracefully instead of failing.

// Norm2Word returns ‖C_c‖² as the raw 64-bit memory word the accelerator's
// norm2 memory would hold, for norm-memory fault injection.
func (m *Model) Norm2Word(c int) uint64 { return uint64(m.norm2[c]) }

// SetNorm2Word overwrites class c's stored squared norm with a raw memory
// word, bypassing the usual recompute — this models norm2-memory corruption,
// so the stored value may disagree with the class vector (or even be
// negative) until RefreshAllNorms or a scrub pass repairs it. Sub-norms are
// left untouched: the full-dimension score path reads norm2 only. norm2 is
// never shared with a clone (Clone copies it), so no ownership is needed.
func (m *Model) SetNorm2Word(c int, w uint64) { m.norm2[c] = int64(w) }

// MaskDims zeroes dimension i of every class whenever i%stride == offset and
// refreshes all norms. With stride = 16 (the accelerator's lane count) this
// models losing one striped class-memory bank: the dead lane's dimensions
// drop out of every dot product, and because the modified cosine divides by
// the recomputed ‖C‖², the score renormalizes automatically over the
// surviving dimensions. It returns the number of dimensions masked per
// class.
func (m *Model) MaskDims(offset, stride int) int {
	if stride <= 0 || offset < 0 || offset >= stride {
		panic(fmt.Sprintf("classifier: MaskDims offset %d out of range for stride %d", offset, stride))
	}
	m.ownAll()
	masked := 0
	for i := offset; i < m.d; i += stride {
		for _, cv := range m.classes {
			cv[i] = 0
		}
		masked++
	}
	m.RefreshAllNorms()
	return masked
}
