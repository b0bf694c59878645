package classifier

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
)

// roundDims is the scoring prefix both engines use: dims clamped to d and
// rounded down to whole sub-norm chunks, at least one.
func roundDims(dims, d int) int {
	return max(min(dims, d)/SubNormGranularity, 1) * SubNormGranularity
}

// bestExact is the single-best reference loop: the argmax of the modified
// cosine over the scored prefix, with the prefix's own squared norm (the
// sub-norm) or the full norm, ties to the lower class index.
func bestExact(m *Model, h hdc.Vec, dims int, updatedNorms bool) (int, float64) {
	dims = roundDims(dims, m.D())
	best, bestS := 0, 0.0
	for c := 0; c < m.Classes(); c++ {
		n2 := m.Class(c).Norm2()
		if updatedNorms {
			n2 = m.Class(c)[:dims].Norm2()
		}
		if s := hdc.CosineScore(h.DotPrefix(m.Class(c), dims), n2); c == 0 || s > bestS {
			best, bestS = c, s
		}
	}
	return best, bestS
}

// bestBinary is the binary reference loop: the minimum prefix Hamming
// distance, ties to the lower class index.
func bestBinary(b *BinaryModel, q *hdc.BinVec, dims int) (int, int) {
	dims = roundDims(dims, b.D())
	best, bestH := 0, 0
	for c := 0; c < b.Classes(); c++ {
		if h := q.HammingPrefix(b.Class(c), dims); c == 0 || h < bestH {
			best, bestH = c, h
		}
	}
	return best, bestH
}

func TestPredictDimsMarginConsistency(t *testing.T) {
	const d, nC = 512, 4
	m, train, _ := trainSmall(t, 3, d, nC)
	// The all-zero query scores every class alike: the lower index must win.
	queries := append(train, make(hdc.Vec, d))
	for _, dims := range []int{d, d / 2, SubNormGranularity, 1} {
		for _, updated := range []bool{true, false} {
			for i, h := range queries {
				wantC, wantS := bestExact(m, h, dims, updated)
				gotC, gotS, margin := m.PredictDimsMargin(h, dims, updated)
				if gotC != wantC || gotS != wantS {
					t.Fatalf("dims=%d updated=%v query %d: margin path (%d,%v) != single-best loop (%d,%v)",
						dims, updated, i, gotC, gotS, wantC, wantS)
				}
				if margin < 0 || margin > 1 {
					t.Fatalf("dims=%d updated=%v query %d: margin %v out of [0,1]", dims, updated, i, margin)
				}
			}
		}
	}
	if c, _, mg := m.PredictDimsMargin(queries[len(train)], d, true); c != 0 || mg != 0 {
		t.Fatalf("all-tie query: class %d margin %v, want class 0 margin 0", c, mg)
	}
}

// TestMarginSeparation: a query that is a training vector of a separable
// problem must carry more confidence than an all-zero query, which scores
// every class identically (margin exactly zero).
func TestMarginSeparation(t *testing.T) {
	const d, nC = 512, 4
	m, train, _ := trainSmall(t, 4, d, nC)

	var sum float64
	for _, h := range train {
		_, _, mg := m.PredictDimsMargin(h, d, true)
		sum += mg
	}
	if mean := sum / float64(len(train)); mean <= 0 {
		t.Fatalf("separable training set mean margin = %v, want > 0", mean)
	}

	zero := make(hdc.Vec, d)
	if _, _, mg := m.PredictDimsMargin(zero, d, true); mg != 0 {
		t.Fatalf("all-zero query margin = %v, want 0 (all scores tie)", mg)
	}
}

func TestBinaryMarginConsistency(t *testing.T) {
	const d, nC = 512, 4
	m, train, _ := trainSmall(t, 5, d, nC)
	queries := packAll(train, d)
	// A model of all-zero counters packs every class identically, so every
	// query ties across all classes.
	tied := Binarize(NewModel(d, nC, 0))
	for _, b := range []*BinaryModel{Binarize(m), tied} {
		for _, dims := range []int{d, d / 2, SubNormGranularity, 1} {
			for i, q := range queries {
				wantC, wantH := bestBinary(b, q, dims)
				gotC, gotH, margin := b.PredictDimsMargin(q, dims)
				if gotC != wantC || gotH != wantH {
					t.Fatalf("dims=%d query %d: margin path (%d,%d) != single-best loop (%d,%d)", dims, i, gotC, gotH, wantC, wantH)
				}
				if margin < 0 || margin > 1 {
					t.Fatalf("dims=%d query %d: margin %v out of [0,1]", dims, i, margin)
				}
				if b == tied && (gotC != 0 || margin != 0) {
					t.Fatalf("dims=%d all-tie query %d: class %d margin %v, want class 0 margin 0", dims, i, gotC, margin)
				}
			}
		}
	}
}

func TestNormMarginEdgeCases(t *testing.T) {
	cases := []struct {
		s1, s2, want float64
	}{
		{1, 1, 0},  // tie
		{1, 2, 0},  // inverted (cannot happen, but must not go negative)
		{0, 0, 0},  // zero magnitude
		{1, -1, 1}, // clamped to 1
		{0.5, 0.25, (0.5 - 0.25) / 0.75},
	}
	for _, c := range cases {
		if got := normMargin(c.s1, c.s2); got != c.want {
			t.Fatalf("normMargin(%v,%v) = %v, want %v", c.s1, c.s2, got, c.want)
		}
	}
	if got := hammingMargin(10, 30, 100); got != 0.2 {
		t.Fatalf("hammingMargin(10,30,100) = %v, want 0.2", got)
	}
	if got := hammingMargin(10, 513, 512); got != 0 {
		t.Fatalf("hammingMargin with absent runner-up = %v, want 0", got)
	}
}
