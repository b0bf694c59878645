package hdc

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/rng"
)

// LevelTable holds the level hypervectors ℓ(0) … ℓ(bins−1) that map
// quantized scalar features into hyperspace. Neighboring levels are similar
// and the extremes are nearly orthogonal: starting from a random ℓ(0), each
// step flips D/(2·(bins−1)) fresh bit positions, so ℓ(0) and ℓ(bins−1)
// differ in ~D/2 positions (dot ≈ 0), preserving the metric structure of the
// input scale (Fig. 2a of the paper).
type LevelTable struct {
	d      int
	bins   int
	levels []*BinVec
}

// NewLevelTable builds a ladder of bins level hypervectors of d dimensions.
// bins must be at least 2 and must not exceed d/2+1 (there must be enough
// positions to flip).
func NewLevelTable(d, bins int, r *rng.Rand) *LevelTable {
	checkDim(d)
	if bins < 2 || (bins-1)*2 > d {
		panic(fmt.Sprintf("hdc: level bins %d out of range for D=%d", bins, d))
	}
	t := &LevelTable{d: d, bins: bins, levels: make([]*BinVec, bins)}
	t.levels[0] = RandomBinVec(d, r)
	// Partition a random permutation of the dimensions into bins−1 chunks;
	// flipping disjoint chunks guarantees the cumulative hamming distance
	// from ℓ(0) grows linearly up the ladder.
	perm := r.Perm(d)
	flipsPerStep := d / (2 * (bins - 1))
	pos := 0
	for b := 1; b < bins; b++ {
		v := t.levels[b-1].Clone()
		for i := 0; i < flipsPerStep; i++ {
			p := perm[pos]
			pos++
			v.SetBit(p, 1-v.Bit(p))
		}
		t.levels[b] = v
	}
	return t
}

// D returns the dimensionality of the levels.
func (t *LevelTable) D() int { return t.d }

// Bins returns the number of quantization bins.
func (t *LevelTable) Bins() int { return t.bins }

// Level returns the hypervector for bin b. The returned vector is shared;
// callers must not modify it (the fault layer is the sanctioned exception:
// it corrupts the levels of a private Clone of the table to model memory
// bit errors and repairs them by regeneration).
func (t *LevelTable) Level(b int) *BinVec {
	return t.levels[b]
}

// Rows exposes the underlying level vectors as memory rows for the fault
// layer. The slice and its vectors are live, not copies.
func (t *LevelTable) Rows() []*BinVec { return t.levels }

// Clone returns a deep copy of the table, including any in-place mutations
// (e.g. injected bit errors).
func (t *LevelTable) Clone() *LevelTable {
	c := &LevelTable{d: t.d, bins: t.bins, levels: make([]*BinVec, len(t.levels))}
	for i, v := range t.levels {
		c.levels[i] = v.Clone()
	}
	return c
}

// Quantize maps x in [lo, hi] to a bin index in [0, bins); values outside
// the range, ±Inf included, clamp to the extreme bins, and NaN maps to bin 0.
// The clamp runs on the scaled float, before the integer conversion, because
// Go leaves the result of an overflowing float-to-int conversion to the
// platform.
func (t *LevelTable) Quantize(x, lo, hi float64) int {
	if hi <= lo {
		return 0
	}
	f := float64(t.bins) * (x - lo) / (hi - lo)
	switch {
	case f >= float64(t.bins):
		return t.bins - 1
	case f >= 1:
		return int(f)
	}
	return 0 // below the range, or NaN
}

// IDGenerator produces the per-index id hypervectors used for binding.
// Rather than storing one random id per index (1K×4K = 512 KB in hardware),
// it keeps a single random seed and generates id(k) = ρ(k)(seed) on the fly —
// rotation preserves pairwise near-orthogonality, shrinking the id memory
// 1024× (paper §4.3.1).
type IDGenerator struct {
	seed *BinVec
}

// NewIDGenerator creates a generator with a random seed of d dimensions.
func NewIDGenerator(d int, r *rng.Rand) *IDGenerator {
	return &IDGenerator{seed: RandomBinVec(d, r)}
}

// Seed returns the seed hypervector (id 0). Callers must not modify it
// (the fault layer is the sanctioned exception, on a private Clone; see
// LevelTable.Level).
func (g *IDGenerator) Seed() *BinVec { return g.seed }

// Clone returns a deep copy of the generator, including any in-place
// mutations of the seed.
func (g *IDGenerator) Clone() *IDGenerator {
	return &IDGenerator{seed: g.seed.Clone()}
}

// D returns the dimensionality.
func (g *IDGenerator) D() int { return g.seed.d }

// ID writes id(k) = ρ(k)(seed) into dst.
func (g *IDGenerator) ID(k int, dst *BinVec) {
	RotateInto(dst, g.seed, k)
}
