package classifier

import (
	"testing"

	"github.com/edge-hdc/generic/internal/hdc"
)

func TestPredictDimsMarginConsistency(t *testing.T) {
	const d, nC = 512, 4
	m, train, _ := trainSmall(t, 3, d, nC)
	for i, h := range train {
		wantC, wantS := m.PredictDims(h, d, true)
		gotC, gotS, margin := m.PredictDimsMargin(h, d, true)
		if gotC != wantC || gotS != wantS {
			t.Fatalf("query %d: margin path (%d,%v) != plain path (%d,%v)", i, gotC, gotS, wantC, wantS)
		}
		if margin < 0 || margin > 1 {
			t.Fatalf("query %d: margin %v out of [0,1]", i, margin)
		}
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
	b := Binarize(m)
	queries := packAll(train, d)
	for _, dims := range []int{d, d / 2} {
		for i, q := range queries {
			wantC, wantH := b.PredictDims(q, dims)
			gotC, gotH, margin := b.PredictDimsMargin(q, dims)
			if gotC != wantC || gotH != wantH {
				t.Fatalf("dims=%d query %d: margin path (%d,%d) != plain (%d,%d)", dims, i, gotC, gotH, wantC, wantH)
			}
			if margin < 0 || margin > 1 {
				t.Fatalf("dims=%d query %d: margin %v out of [0,1]", dims, i, margin)
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
