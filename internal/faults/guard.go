package faults

import (
	"hash/crc32"

	"github.com/edge-hdc/generic/internal/classifier"
)

// Guard holds the detection codes protecting class memory: one CRC32 (IEEE)
// per (class, lane) over the lane's 16-bit class words, mirroring how the
// hardware would attach a checksum to each physical class-memory column.
// Level/id memories carry no guard — they are regenerable from seed, which
// is cheaper than any code (see the package comment). A guard is immutable
// once built, so cloned controllers share it; re-blessing a new state
// builds a new guard.
type Guard struct {
	crcs [][Lanes]uint32 // crcs[class][lane]
}

// NewGuard snapshots CRCs for the model's current class memory, blessing it
// as the reference.
func NewGuard(m *classifier.Model) *Guard {
	g := &Guard{crcs: make([][Lanes]uint32, m.Classes())}
	for c := range g.crcs {
		for lane := 0; lane < Lanes; lane++ {
			g.crcs[c][lane] = laneCRC(m, c, lane)
		}
	}
	return g
}

// Check reports whether class c's lane column still matches its reference
// CRC.
func (g *Guard) Check(m *classifier.Model, c, lane int) bool {
	return laneCRC(m, c, lane) == g.crcs[c][lane]
}

// laneCRC computes the CRC32-IEEE over the 16-bit memory words of one
// (class, lane) column: dimensions i ≡ lane (mod Lanes), in ascending order.
// Class elements always fit 16 bits (the model saturates to bw ≤ 16), so
// truncating the int32 to its low half-word is lossless.
func laneCRC(m *classifier.Model, c, lane int) uint32 {
	cv := m.Class(c)
	var buf [2]byte
	crc := uint32(0)
	for i := lane; i < m.D(); i += Lanes {
		w := uint16(uint32(cv[i]))
		buf[0] = byte(w)
		buf[1] = byte(w >> 8)
		crc = crc32.Update(crc, crc32.IEEETable, buf[:])
	}
	return crc
}
