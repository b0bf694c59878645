package classifier

import (
	"fmt"

	"github.com/edge-hdc/generic/internal/hdc"
)

// BinaryModel is the packed binary inference representation: one
// sign-binarized hypervector per class, scored by Hamming distance (XOR +
// popcount) instead of the integer dot product — the BinHD-style limit case
// of the accelerator's bw-programmable memories. It is derived from a
// trained Model by Binarize and is immutable under inference; training and
// adaptation stay on the integer Model, which re-derives the packed classes
// it touched.
//
// Scoring equivalence: on a sign-binarized model every class vector is
// bipolar, so all (sub-)norms equal the scored dimension count and the
// modified-cosine ranking degenerates to the dot-product ranking, which is
// exactly the min-Hamming ranking (dot = dims − 2·hamming). BinaryModel
// therefore predicts bit-identically to the integer path on a Quantize(1)
// model — the golden equivalence test locks this.
//
// Packed rows share copy-on-write across Clone exactly like Model's class
// rows: writers take ownership of a row before writing it.
type BinaryModel struct {
	d        int
	classes  []*hdc.BinVec
	owned    []bool // owned[c]: classes[c] is referenced by this model alone
	sourceBW int    // bit-width of the counters this model was binarized from
}

// Binarize packs the sign of every class counter of m (v >= 0 → +1) into a
// binary model. The source model is not modified.
func Binarize(m *Model) *BinaryModel {
	b := &BinaryModel{d: m.d, sourceBW: m.bw, classes: make([]*hdc.BinVec, len(m.classes)), owned: make([]bool, len(m.classes))}
	for c, cv := range m.classes {
		bv := hdc.NewBinVec(m.d)
		bv.PackSigns(cv)
		b.classes[c] = bv
		b.owned[c] = true
	}
	return b
}

// D returns the dimensionality; Classes the class count; SourceBW the
// class-element bit-width of the integer model this was binarized from
// (binarization provenance, persisted by modelio v4).
func (b *BinaryModel) D() int        { return b.d }
func (b *BinaryModel) Classes() int  { return len(b.classes) }
func (b *BinaryModel) SourceBW() int { return b.sourceBW }

// Class exposes class c's packed hypervector, read-only: the row may be
// shared with clones. The fault layer writes through MutableClass.
func (b *BinaryModel) Class(c int) *hdc.BinVec { return b.classes[c] }

// MutableClass takes ownership of class c's packed row, copying it if a
// clone may still reference it, and returns it for in-place mutation — the
// fault layer's packed class-memory write path.
func (b *BinaryModel) MutableClass(c int) *hdc.BinVec {
	if !b.owned[c] {
		b.classes[c] = b.classes[c].Clone()
		b.owned[c] = true
	}
	return b.classes[c]
}

// RebinarizeClass re-derives class c's packed vector from the integer model
// — the maintenance hook for online adaptation, which touches at most two
// classes per step. A row shared with a clone is replaced by a fresh one,
// never overwritten.
func (b *BinaryModel) RebinarizeClass(m *Model, c int) {
	if m.d != b.d {
		panic(fmt.Sprintf("classifier: RebinarizeClass D=%d, binary model D=%d", m.d, b.d))
	}
	if !b.owned[c] {
		b.classes[c] = hdc.NewBinVec(b.d)
		b.owned[c] = true
	}
	b.classes[c].PackSigns(m.classes[c])
	b.sourceBW = m.bw
}

// PredictDimsMargin returns the class whose packed vector is nearest to the
// packed query q in Hamming distance, that distance, and the normalized
// top-2 confidence margin: the Hamming gap between the two nearest classes
// over the scored dimension count, the binary-mode analogue of the exact
// path's score-gap margin.
//
// Only the first dims dimensions are scored, rounded down to the sub-norm
// granularity (minimum one chunk — the exact path's rounding) and clamped
// to D: dims = b.D() is the full-model score. On a bipolar model the
// per-chunk norms are the chunk sizes, so no sub-norm memory is consulted:
// min-Hamming over the prefix is already the updated-norms ranking.
//
// The loop tracks the two nearest classes; ties keep the lower class index,
// like the integer path. It records nothing: the Pipeline observes served
// predicts.
//
//generic:hotpath
func (b *BinaryModel) PredictDimsMargin(q *hdc.BinVec, dims int) (class, hamming int, margin float64) {
	if dims > b.d {
		dims = b.d
	}
	chunks := dims / SubNormGranularity
	if chunks < 1 {
		chunks = 1
	}
	dims = chunks * SubNormGranularity
	best, h1, h2 := 0, b.d+1, b.d+1
	if dims == b.d {
		for c, cv := range b.classes {
			if h := q.Hamming(cv); h < h1 {
				best, h1, h2 = c, h, h1
			} else if h < h2 {
				h2 = h
			}
		}
	} else {
		for c, cv := range b.classes {
			if h := q.HammingPrefix(cv, dims); h < h1 {
				best, h1, h2 = c, h, h1
			} else if h < h2 {
				h2 = h
			}
		}
	}
	return best, h1, hammingMargin(h1, h2, dims)
}

// hammingMargin normalizes a Hamming gap to [0,1] over the scored dimension
// count. A missing runner-up (single-class model) collapses to zero.
//
//generic:hotpath
func hammingMargin(h1, h2, dims int) float64 {
	if dims <= 0 || h2 <= h1 || h2 > dims {
		return 0
	}
	m := float64(h2-h1) / float64(dims)
	if m > 1 {
		m = 1
	}
	return m
}

// Clone returns an independent binary model in O(classes), sharing the
// packed rows copy-on-write under the same rules as Model.Clone.
func (b *BinaryModel) Clone() *BinaryModel {
	c := &BinaryModel{
		d:        b.d,
		sourceBW: b.sourceBW,
		classes:  append([]*hdc.BinVec(nil), b.classes...),
		owned:    make([]bool, len(b.classes)),
	}
	clear(b.owned)
	return c
}

// BinaryAccuracy returns the fraction of packed queries predicted as their
// label at full D, counted like EvaluateDimsBatch.
func BinaryAccuracy(b *BinaryModel, encoded []*hdc.BinVec, labels []int, workers int) float64 {
	return accuracy(len(encoded), labels, workers, func(i int) int {
		c, _, _ := b.PredictDimsMargin(encoded[i], b.d)
		return c
	})
}
