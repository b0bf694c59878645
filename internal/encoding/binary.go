// Binarized query path: every library encoder can emit the sign-binarized
// hypervector sign(H(x)) directly into a packed hdc.BinVec, without
// materializing the intermediate integer vector. This is the encode side of
// the binary inference engine — for the level-based encoders the majority
// vote is taken word-parallel on bit-sliced counters, and for the windowed
// (GENERIC/ngram) encoder the whole window-bundle-threshold chain is fused
// into one kernel, which is where the batch-path speedup comes from.
//
// Contract: for any encoder e and input x, EncodeBin(x) produces exactly
// PackSigns(Encode(x)) — the equivalence tests lock this bit-identically.
package encoding

import (
	"fmt"
	"math/bits"

	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/telemetry"
)

// BinaryEncoder is implemented by encoders that can produce a packed
// sign-binarized hypervector directly. All library encoders implement it.
type BinaryEncoder interface {
	Encoder
	// EncodeBin writes sign(H(x)) into out, which must have dimensionality
	// D(). The result is bit-identical to packing the signs of Encode(x).
	EncodeBin(x []float64, out *hdc.BinVec)
}

// AsBinary reports e's binarized query path, if it has one.
func AsBinary(e Encoder) (BinaryEncoder, bool) {
	be, ok := e.(BinaryEncoder)
	return be, ok
}

//generic:hotpath
func checkEncodeBinArgs(features, d int, x []float64, out *hdc.BinVec) {
	if len(x) != features {
		panic(fmt.Sprintf("encoding: input has %d features, encoder expects %d", len(x), features))
	}
	if out.D() != d {
		panic(fmt.Sprintf("encoding: binary output dimensionality %d, want %d", out.D(), d))
	}
}

// EncodeBin for RP packs the projection signs directly: bit i = 1 exactly
// when the accumulated projection is >= 0, matching sign(Φx) → ±1 → pack.
//
//generic:hotpath
func (e *rpEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(len(e.rows), e.d, x, out)
	acc := e.acc
	for i := range acc {
		acc[i] = 0
	}
	for m, v := range x {
		row := e.rows[m]
		if v == 0 {
			continue
		}
		for i, p := range row {
			acc[i] += v * p
		}
	}
	words := out.Words()
	for w := range words {
		var word uint64
		base := w * hdc.WordBits
		for b := 0; b < hdc.WordBits; b++ {
			if acc[base+b] >= 0 {
				word |= 1 << uint(b)
			}
		}
		words[w] = word
	}
	telemetry.EncodeNS.ObserveSince(start)
}

//generic:hotpath
func (e *levelIDEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(len(e.ids), e.cfg.D, x, out)
	e.acc.Reset()
	for m, v := range x {
		lv := e.levels.Level(e.levels.Quantize(v, e.cfg.Lo, e.cfg.Hi))
		hdc.XorInto(e.bound, lv, e.ids[m])
		e.acc.Add(e.bound)
	}
	e.acc.MajorityInto(out)
	telemetry.EncodeNS.ObserveSince(start)
}

//generic:hotpath
func (e *permuteEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(e.cfg.Features, e.cfg.D, x, out)
	e.acc.Reset()
	for m, v := range x {
		lv := e.levels.Level(e.levels.Quantize(v, e.cfg.Lo, e.cfg.Hi))
		hdc.RotateInto(e.rot, lv, m)
		e.acc.Add(e.rot)
	}
	e.acc.MajorityInto(out)
	telemetry.EncodeNS.ObserveSince(start)
}

// binScratch is the windowed encoder's fused-kernel working set, sized once
// on the first EncodeBin (window count and plane depth are functions of the
// configuration alone, so Regenerate never needs to touch it).
type binScratch struct {
	rows [][]uint64 // per-offset level word rows of the current window (generic-n gather)
	// win is the transposed fused-window buffer: win[w*windows+i] holds word
	// w of bound window i, so the counting pass reads each word's window
	// stream contiguously.
	win []uint64
	// hi holds the bit-sliced counter planes for count bits 3 and up; bits
	// 0-2 live in registers inside the counting pass and are never stored.
	hi [][]uint64
}

func newBinScratch(cfg Config) *binScratch {
	windows := cfg.Features - cfg.N + 1
	nw := cfg.D / hdc.WordBits
	s := &binScratch{
		rows: make([][]uint64, cfg.N),
		win:  make([]uint64, windows*nw),
	}
	if planes := bits.Len(uint(windows)) - 3; planes > 0 {
		s.hi = make([][]uint64, planes)
		for k := range s.hi {
			s.hi[k] = make([]uint64, nw)
		}
	}
	return s
}

// csa is a carry-save full adder over 64 lanes: sum = a ^ b ^ c,
// carry = majority(a, b, c). Small enough to inline into the hot loop.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// EncodeBin for the windowed (GENERIC/ngram) encoder fuses the whole
// pipeline — window XOR, counter bundling, and majority threshold — into two
// tight passes, and the integer hypervector never exists.
//
// Pass 1 XOR-combines each window's rotated level rows (and id) into a
// transposed buffer, so pass 2 sees each 64-lane word's window stream
// contiguously. Pass 2 counts votes per lane with a Harley-Seal carry-save
// tree: seven full adders compress eight windows into running weight-1/2/4
// registers plus one weight-8 word, and only that weight-8 word ripples into
// the bit-sliced counter planes — one memory-plane visit per eight windows
// instead of the naive one-ripple-per-window, which is what an accumulator
// of per-lane counts (the exact path's Acc) has to do. The final majority
// threshold count >= ceil(W/2) is a word-parallel borrow subtraction
// emitting packed sign bits directly.
//
//generic:hotpath
func (e *windowedEncoder) EncodeBin(x []float64, out *hdc.BinVec) {
	start := telemetry.Now()
	checkEncodeBinArgs(e.cfg.Features, e.cfg.D, x, out)
	n := e.cfg.N
	bins := e.bins
	for m, v := range x {
		bins[m] = e.quant.Quantize(v, e.cfg.Lo, e.cfg.Hi)
	}
	nw := e.cfg.D / hdc.WordBits
	windows := len(x) - n + 1
	if e.bin == nil {
		//lint:ignore generic/hotalloc,generic/escapes one-time scratch build behind the nil guard, on each encoder's first EncodeBin
		e.bin = newBinScratch(e.cfg)
	}
	win := e.bin.win

	// Pass 1: gather and bind. The common window widths keep every row
	// header in a register; other widths go through the rows scratch.
	for i := 0; i < windows; i++ {
		var id []uint64
		if e.useID {
			id = e.ids[i].Words()
		}
		switch n {
		case 2:
			r0 := e.rotLevels[0][bins[i]].Words()
			r1 := e.rotLevels[1][bins[i+1]].Words()
			if id != nil {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w] ^ id[w]
				}
			} else {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w]
				}
			}
		case 3:
			r0 := e.rotLevels[0][bins[i]].Words()
			r1 := e.rotLevels[1][bins[i+1]].Words()
			r2 := e.rotLevels[2][bins[i+2]].Words()
			if id != nil {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w] ^ r2[w] ^ id[w]
				}
			} else {
				for w := 0; w < nw; w++ {
					win[w*windows+i] = r0[w] ^ r1[w] ^ r2[w]
				}
			}
		default:
			rows := e.bin.rows
			for j := 0; j < n; j++ {
				rows[j] = e.rotLevels[j][bins[i+j]].Words()
			}
			r0 := rows[0]
			for w := 0; w < nw; w++ {
				t := r0[w]
				for j := 1; j < n; j++ {
					t ^= rows[j][w]
				}
				if id != nil {
					t ^= id[w]
				}
				win[w*windows+i] = t
			}
		}
	}

	hi := e.bin.hi
	for k := range hi {
		p := hi[k]
		for w := range p {
			p[w] = 0
		}
	}

	// Pass 2: count and threshold. Majority: bit = 1 iff
	// count >= ceil(W/2), i.e. 2·count − W >= 0 — the sign rule. The borrow
	// of (count − thr) computed word-parallel is set exactly for the lanes
	// below threshold.
	thr := uint64(windows+1) / 2
	nk := bits.Len(uint(windows))
	words := out.Words()
	for w := 0; w < nw; w++ {
		row := win[w*windows : (w+1)*windows]
		var ones, twos, fours uint64
		i := 0
		for ; i+8 <= len(row); i += 8 {
			var twosA, twosB, foursA, foursB, eights uint64
			ones, twosA = csa(row[i], row[i+1], ones)
			ones, twosB = csa(row[i+2], row[i+3], ones)
			twos, foursA = csa(twosA, twosB, twos)
			ones, twosA = csa(row[i+4], row[i+5], ones)
			ones, twosB = csa(row[i+6], row[i+7], ones)
			twos, foursB = csa(twosA, twosB, twos)
			fours, eights = csa(foursA, foursB, fours)
			for k := 0; eights != 0; k++ {
				p := hi[k]
				p[w], eights = p[w]^eights, p[w]&eights
			}
		}
		for ; i < len(row); i++ {
			a := row[i]
			c2 := ones & a
			ones ^= a
			c4 := twos & c2
			twos ^= c2
			c8 := fours & c4
			fours ^= c4
			for k := 0; c8 != 0; k++ {
				p := hi[k]
				p[w], c8 = p[w]^c8, p[w]&c8
			}
		}
		borrow := uint64(0)
		for k := 0; k < nk; k++ {
			var c uint64
			switch k {
			case 0:
				c = ones
			case 1:
				c = twos
			case 2:
				c = fours
			default:
				c = hi[k-3][w]
			}
			var tb uint64
			if thr>>uint(k)&1 == 1 {
				tb = ^uint64(0)
			}
			borrow = ^c&(tb|borrow) | tb&borrow
		}
		words[w] = ^borrow
	}
	telemetry.EncodeNS.ObserveSince(start)
}
