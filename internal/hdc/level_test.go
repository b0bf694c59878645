package hdc

import (
	"math"
	"testing"

	"github.com/edge-hdc/generic/internal/rng"
)

func TestLevelLadderMonotoneDistance(t *testing.T) {
	r := rng.New(1)
	const d, bins = 4096, 64
	lt := NewLevelTable(d, bins, r)
	base := lt.Level(0)
	prev := -1
	for b := 1; b < bins; b++ {
		h := base.Hamming(lt.Level(b))
		if h <= prev {
			t.Fatalf("ladder distance not strictly increasing at bin %d: %d <= %d", b, h, prev)
		}
		prev = h
	}
	// Extremes must be near-orthogonal: hamming ≈ D/2.
	h := base.Hamming(lt.Level(bins - 1))
	if h < d*45/100 || h > d*55/100 {
		t.Fatalf("extreme levels hamming = %d, want ≈ %d", h, d/2)
	}
}

func TestLevelNeighborsSimilar(t *testing.T) {
	r := rng.New(2)
	const d, bins = 4096, 64
	lt := NewLevelTable(d, bins, r)
	step := d / (2 * (bins - 1))
	for b := 1; b < bins; b++ {
		if h := lt.Level(b - 1).Hamming(lt.Level(b)); h != step {
			t.Fatalf("neighbor hamming at bin %d = %d, want %d", b, h, step)
		}
	}
}

func TestLevelDeterministicBySeed(t *testing.T) {
	a := NewLevelTable(512, 16, rng.New(9))
	b := NewLevelTable(512, 16, rng.New(9))
	for i := 0; i < 16; i++ {
		if !a.Level(i).Equal(b.Level(i)) {
			t.Fatalf("level %d differs across equal seeds", i)
		}
	}
}

func TestQuantize(t *testing.T) {
	r := rng.New(3)
	lt := NewLevelTable(512, 8, r)
	cases := []struct {
		x, lo, hi float64
		want      int
	}{
		{0, 0, 1, 0},
		{0.999, 0, 1, 7},
		{1, 0, 1, 7},     // clamp at top
		{-5, 0, 1, 0},    // clamp below
		{10, 0, 1, 7},    // clamp above
		{0.5, 0, 1, 4},   // midpoint
		{0.124, 0, 1, 0}, // just below bin edge
		{0.126, 0, 1, 1}, // just above bin edge
		{5, -10, 10, 6},  // shifted range: (5+10)/20*8 = 6
		{3, 3, 3, 0},     // degenerate range
		{7, 9, 3, 0},     // inverted range
		// Scaled values beyond int64: clamping must happen before the
		// integer conversion, whose overflow result is platform-defined.
		{1e18, 0, 0.5, 7},
		{-1e18, 0, 0.5, 0},
		{math.Inf(1), 0, 1, 7},
		{math.Inf(-1), 0, 1, 0},
		{math.NaN(), 0, 1, 0},
	}
	for _, c := range cases {
		if got := lt.Quantize(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Quantize(%v, %v, %v) = %d, want %d", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLevelTablePanicsOnBadBins(t *testing.T) {
	for _, bins := range []int{0, 1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLevelTable(bins=%d, d=64) did not panic", bins)
				}
			}()
			NewLevelTable(64, bins, rng.New(1))
		}()
	}
}

func TestIDGeneratorOrthogonality(t *testing.T) {
	// Rotated ids must stay pairwise near-orthogonal, the property that
	// lets GENERIC shrink the id memory 1024× (paper §4.3.1).
	r := rng.New(4)
	const d = 4096
	g := NewIDGenerator(d, r)
	ids := make([]*BinVec, 16)
	for k := range ids {
		ids[k] = NewBinVec(d)
		g.ID(k*17+1, ids[k])
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			dot := ids[i].Dot(ids[j])
			if dot > 6*64 || dot < -6*64 {
				t.Errorf("ids %d,%d dot = %d, expected near-orthogonal", i, j, dot)
			}
		}
	}
}

func TestIDZeroIsSeed(t *testing.T) {
	r := rng.New(5)
	g := NewIDGenerator(512, r)
	got := NewBinVec(512)
	g.ID(0, got)
	if !got.Equal(g.Seed()) {
		t.Fatal("ID(0) != seed")
	}
}

func TestIDDeterministic(t *testing.T) {
	g := NewIDGenerator(512, rng.New(6))
	a, b := NewBinVec(512), NewBinVec(512)
	g.ID(123, a)
	g.ID(123, b)
	if !a.Equal(b) {
		t.Fatal("ID(123) not deterministic")
	}
}

func BenchmarkLevelTableBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewLevelTable(4096, 64, rng.New(uint64(i)))
	}
}
