package faults

import (
	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/rng"
)

// Mem is the bit-addressable view of one accelerator memory: Rows()
// addressable rows of Cells() cells, each CellBits() bits wide. Injectors
// visit bits in (row, cell, bit) order; adapters translate bit positions
// into the software representation of the memory.
type Mem interface {
	Rows() int
	Cells() int
	CellBits() int
	// Bit returns bit b of cell (row, cell) as 0 or 1.
	Bit(row, cell, b int) int
	// SetBit stores v (0 or 1) into bit b of cell (row, cell).
	SetBit(row, cell, b, v int)
}

// --- level memory / id seed register ---------------------------------------

// bitRowsMem views a slice of bit-vectors as rows of 1-bit cells — the level
// memory (64 rows × D bits) or the id seed register (1 row × D bits).
type bitRowsMem struct{ rows []*hdc.BinVec }

// BitRowsMem wraps live bit-vector rows for injection. Mutations are
// in place; callers owning derived material must rebuild it afterwards.
func BitRowsMem(rows []*hdc.BinVec) Mem { return bitRowsMem{rows: rows} }

func (m bitRowsMem) Rows() int     { return len(m.rows) }
func (m bitRowsMem) Cells() int    { return m.rows[0].D() }
func (m bitRowsMem) CellBits() int { return 1 }

func (m bitRowsMem) Bit(row, cell, _ int) int { return m.rows[row].Bit(cell) }

func (m bitRowsMem) SetBit(row, cell, _, v int) { m.rows[row].SetBit(cell, v) }

// --- class memory -----------------------------------------------------------

// classMem views the model's class vectors as the accelerator's striped
// class memories: one row per class, D cells of BW bits each, cell i living
// in bank i mod Lanes. Elements are bw-bit two's-complement words
// (sign-magnitude ±1 at bw=1). The caller must refresh norms after
// injection.
type classMem struct {
	m    *classifier.Model
	bw   int
	mask uint32
	sign uint32
}

// ClassMem wraps a live model for class-memory injection. Writes take
// ownership of the written class row first (Model.MutableClass), so a
// corrupted model never changes a clone it shares rows with.
func ClassMem(m *classifier.Model) Mem {
	bw := m.BW()
	return classMem{
		m:    m,
		bw:   bw,
		mask: uint32(1)<<uint(bw) - 1,
		sign: uint32(1) << uint(bw-1),
	}
}

func (c classMem) Rows() int     { return c.m.Classes() }
func (c classMem) Cells() int    { return c.m.D() }
func (c classMem) CellBits() int { return c.bw }

func (c classMem) Bit(row, cell, b int) int {
	v := c.m.Class(row)[cell]
	if c.bw == 1 {
		if v < 0 {
			return 1
		}
		return 0
	}
	return int(uint32(v) >> uint(b) & 1)
}

func (c classMem) SetBit(row, cell, b, bit int) {
	cv := c.m.MutableClass(row)
	if c.bw == 1 {
		// Bipolar storage: the single bit is the sign.
		if bit == 1 {
			cv[cell] = -1
		} else {
			cv[cell] = 1
		}
		return
	}
	u := uint32(cv[cell]) & c.mask
	if bit == 1 {
		u |= 1 << uint(b)
	} else {
		u &^= 1 << uint(b)
	}
	if u&c.sign != 0 { // sign-extend back to int32
		u |= ^c.mask
	}
	cv[cell] = int32(u)
}

// --- packed binary class memory ---------------------------------------------

// binaryClassMem views a binary model's packed class vectors as the
// accelerator's bw=1 class memory: one row per class, D cells of one bit
// each. Bits are flipped directly in the packed words — the stored
// representation under test — so a flip changes the Hamming geometry with no
// norm memory to go stale (bipolar norms are constants).
type binaryClassMem struct{ b *classifier.BinaryModel }

// BinaryClassMem wraps a live binary model for packed class-memory
// injection. Mutations are in place on the packed words of rows the model
// owns (BinaryModel.MutableClass), never on rows shared with a clone.
func BinaryClassMem(b *classifier.BinaryModel) Mem { return binaryClassMem{b: b} }

func (m binaryClassMem) Rows() int     { return m.b.Classes() }
func (m binaryClassMem) Cells() int    { return m.b.D() }
func (m binaryClassMem) CellBits() int { return 1 }

func (m binaryClassMem) Bit(row, cell, _ int) int { return m.b.Class(row).Bit(cell) }

func (m binaryClassMem) SetBit(row, cell, _, v int) { m.b.MutableClass(row).SetBit(cell, v) }

// --- norm2 memory -----------------------------------------------------------

// normMem views the per-class squared norms as 64-bit memory words. Norm
// corruption is NOT followed by a recompute — the whole point is a stored
// norm that disagrees with the class vector until a scrub repairs it.
type normMem struct{ m *classifier.Model }

// NormMem wraps a live model's norm2 memory for injection. The norm2 words
// are private to each model (Model.Clone copies them), so writes need no
// ownership step.
func NormMem(m *classifier.Model) Mem { return normMem{m: m} }

func (n normMem) Rows() int     { return n.m.Classes() }
func (n normMem) Cells() int    { return 1 }
func (n normMem) CellBits() int { return 64 }

func (n normMem) Bit(row, _, b int) int { return int(n.m.Norm2Word(row) >> uint(b) & 1) }

func (n normMem) SetBit(row, _, b, v int) {
	w := n.m.Norm2Word(row)
	if v == 1 {
		w |= 1 << uint(b)
	} else {
		w &^= 1 << uint(b)
	}
	n.m.SetNorm2Word(row, w)
}

// --- input feature memory ---------------------------------------------------

// byteMem views a byte slice as one row of 8-bit cells — the accelerator's
// 1024×8-bit input memory holding one quantized sample.
type byteMem struct{ b []byte }

// ByteMem wraps a byte buffer (e.g. a quantized feature row) for injection.
func ByteMem(b []byte) Mem { return byteMem{b: b} }

func (m byteMem) Rows() int     { return 1 }
func (m byteMem) Cells() int    { return len(m.b) }
func (m byteMem) CellBits() int { return 8 }

func (m byteMem) Bit(_, cell, b int) int { return int(m.b[cell] >> uint(b) & 1) }

func (m byteMem) SetBit(_, cell, b, v int) {
	if v == 1 {
		m.b[cell] |= 1 << uint(b)
	} else {
		m.b[cell] &^= 1 << uint(b)
	}
}

// inputCodeMax is the largest 8-bit feature code.
const inputCodeMax = 255

// CorruptFeatures models an input-memory fault on one sample: features are
// quantized to the accelerator's 8-bit codes over [lo, hi] (values outside
// clamp), the injector corrupts the code bytes, and the codes are
// dequantized into dst. It returns the number of bits changed. dst and x
// must have the same length; dst is fully overwritten, so even uncorrupted
// features round-trip through 8-bit quantization exactly as the hardware's
// input memory would store them.
func CorruptFeatures(dst, x []float64, lo, hi float64, inj Injector, r *rng.Rand) int {
	if len(dst) != len(x) {
		panic("faults: CorruptFeatures dst/x length mismatch")
	}
	if hi <= lo {
		hi = lo + 1
	}
	codes := make([]byte, len(x))
	scale := float64(inputCodeMax) / (hi - lo)
	for i, v := range x {
		// Clamp before converting: an overflowing float-to-int conversion
		// is platform-defined. NaN stores code 0.
		switch f := (v-lo)*scale + 0.5; {
		case f >= inputCodeMax:
			codes[i] = inputCodeMax
		case f >= 0:
			codes[i] = byte(f)
		}
	}
	changed := inj.Apply(ByteMem(codes), r)
	for i, c := range codes {
		dst[i] = lo + float64(c)/float64(inputCodeMax)*(hi-lo)
	}
	return changed
}
