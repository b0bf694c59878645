package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	x, y := r.Uint64(), r.Uint64()
	if x == 0 && y == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first outputs")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: got %d, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(17)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed elements: %v", s)
	}
}

func TestFillBits(t *testing.T) {
	r := New(21)
	buf := make([]uint64, 64)
	r.FillBits(buf)
	zero := 0
	for _, w := range buf {
		if w == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("FillBits produced %d zero words out of %d", zero, len(buf))
	}
}

func TestMul64MatchesBigMul(t *testing.T) {
	f := func(x, y uint64) bool {
		hi, lo := mul64(x, y)
		// Verify via decomposition: (x*y) mod 2^64 must equal lo, and
		// hi must satisfy the schoolbook identity on 32-bit halves.
		if lo != x*y {
			return false
		}
		x0, x1 := x&0xffffffff, x>>32
		y0, y1 := y&0xffffffff, y>>32
		t := x1*y0 + (x0*y0)>>32
		w1 := t&0xffffffff + x0*y1
		wantHi := x1*y1 + t>>32 + w1>>32
		return hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the public-domain splitmix64 implementation
	// with seed 0.
	z := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&z); got != w {
			t.Fatalf("SplitMix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

// refNorm is the polar method as one loop over Float64 draws: the
// reference NormFloat64 and the two-phase PolarPairs/Polar split must equal.
func refNorm(r *Rand) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// TestPolarPairsMatchNormFloat64 checks the two-phase polar method and
// NormFloat64 against refNorm: the same variates in the same order, and the
// generator left in the same state, for batch sizes around the rejection
// loop's retries.
func TestPolarPairsMatchNormFloat64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 128, 1000} {
		a, b, c := New(uint64(n)+3), New(uint64(n)+3), New(uint64(n)+3)
		pairs := make([]float64, 2*n)
		a.PolarPairs(pairs)
		for i := 0; i < n; i++ {
			want := refNorm(b)
			if got := Polar(pairs[2*i], pairs[2*i+1]); got != want {
				t.Fatalf("n=%d: variate %d = %v, reference %v", n, i, got, want)
			}
			if got := c.NormFloat64(); got != want {
				t.Fatalf("n=%d: NormFloat64 %d = %v, reference %v", n, i, got, want)
			}
		}
		if x := b.Uint64(); a.Uint64() != x || c.Uint64() != x {
			t.Fatalf("n=%d: the generators end in different states", n)
		}
	}
}
