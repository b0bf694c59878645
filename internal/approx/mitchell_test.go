package approx

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edge-hdc/generic/internal/rng"
)

func TestLog2FixedExactPowers(t *testing.T) {
	for n := 0; n < 63; n++ {
		want := int64(n) << FracBits
		if got := Log2Fixed(1 << uint(n)); got != want {
			t.Fatalf("Log2Fixed(2^%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLog2FixedPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2Fixed(0) did not panic")
		}
	}()
	Log2Fixed(0)
}

func TestLog2FixedErrorBound(t *testing.T) {
	// Corrected Mitchell log error stays within ~±0.008 bits.
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		x := r.Uint64()>>uint(r.Intn(40)) | 1
		got := float64(Log2Fixed(x)) / (1 << FracBits)
		want := math.Log2(float64(x))
		if diff := want - got; diff < -0.01 || diff > 0.01 {
			t.Fatalf("Log2Fixed(%d) error %v outside ±0.01", x, diff)
		}
	}
}

func TestExp2FixedExact(t *testing.T) {
	for k := 0; k < 40; k++ {
		if got := Exp2Fixed(int64(k) << FracBits); got != 1<<uint(k) {
			t.Fatalf("Exp2Fixed(%d<<16) = %d, want 2^%d", k, got, k)
		}
	}
	if Exp2Fixed(-1) != 0 {
		t.Fatal("negative exponent must truncate to 0")
	}
}

func TestScoreApproxSignAndZero(t *testing.T) {
	if s := ScoreApprox(-100, 50); s >= 0 {
		t.Fatalf("negative dot scored %d", s)
	}
	if s := ScoreApprox(100, 50); s <= 0 {
		t.Fatalf("positive dot scored %d", s)
	}
	if s := ScoreApprox(0, 50); s != 0 {
		t.Fatalf("zero dot scored %d", s)
	}
	if s := ScoreApprox(100, 0); s != -(1 << 62) {
		t.Fatalf("zero norm scored %d, want sentinel", s)
	}
}

func TestScoreApproxTracksExact(t *testing.T) {
	r := rng.New(3)
	scale := float64(int64(1) << ScoreScaleBits)
	for i := 0; i < 10000; i++ {
		dot := int64(r.Intn(1<<30)) - 1<<29
		norm2 := int64(r.Intn(1<<40)) + 1
		got := float64(ScoreApprox(dot, norm2))
		want := scale * float64(dot) * float64(dot) / float64(norm2)
		if dot < 0 {
			want = -want
		}
		// Chained corrected approximations (two logs + antilog) stay
		// within ~4%; integer truncation adds ≤1 absolute.
		if math.Abs(got-want) > 0.04*math.Abs(want)+1 {
			t.Fatalf("ScoreApprox(%d,%d) = %v, want %v", dot, norm2, got, want)
		}
	}
}

func TestScoreApproxPreservesClearRankings(t *testing.T) {
	// If two scores differ by more than the Mitchell error envelope, the
	// approximate scores must rank identically — the property GENERIC's
	// inference correctness rests on.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dotA := int64(r.Intn(1<<20) + 1<<10)
		dotB := dotA * 2 // 4× score gap, far beyond the error envelope
		norm := int64(r.Intn(1<<20) + 1)
		return ScoreApprox(dotB, norm) > ScoreApprox(dotA, norm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInDot(t *testing.T) {
	// For fixed norm, ScoreApprox must be non-decreasing in dot over a
	// dense range (piecewise-linear Mitchell segments are monotone).
	norm := int64(12345)
	prev := int64(math.MinInt64)
	for dot := int64(1); dot < 5000; dot++ {
		s := ScoreApprox(dot, norm)
		if s < prev {
			t.Fatalf("ScoreApprox not monotone at dot=%d: %d < %d", dot, s, prev)
		}
		prev = s
	}
}

func BenchmarkScoreApprox(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink = ScoreApprox(int64(i-b.N/2), 98765)
	}
	_ = sink
}
